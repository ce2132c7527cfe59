/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace oscar
{
namespace
{

/** A payload whose `a` operand labels the event. */
EventPayload
labelled(std::uint32_t label)
{
    return EventPayload{0, label, 0};
}

/** Pop every pending event and return the labels in firing order. */
std::vector<std::uint32_t>
drainLabels(EventQueue &q)
{
    std::vector<std::uint32_t> order;
    while (!q.empty())
        order.push_back(q.pop().payload.a);
    return order;
}

TEST(EventQueue, StartsEmptyAtCycleZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_EQ(q.peakPendingCount(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    q.schedule(30, labelled(3));
    q.schedule(10, labelled(1));
    q.schedule(20, labelled(2));
    EXPECT_EQ(drainLabels(q), (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesFireInInsertionOrder)
{
    EventQueue q;
    q.schedule(5, labelled(1));
    q.schedule(5, labelled(2));
    q.schedule(5, labelled(3));
    EXPECT_EQ(drainLabels(q), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, PopReturnsFiringCycleAndPayload)
{
    EventQueue q;
    q.schedule(17, EventPayload{4, 9, 123});
    const EventQueue::Fired event = q.pop();
    EXPECT_EQ(event.when, 17u);
    EXPECT_EQ(event.payload.kind, 4u);
    EXPECT_EQ(event.payload.a, 9u);
    EXPECT_EQ(event.payload.b, 123u);
    EXPECT_EQ(q.now(), 17u);
}

TEST(EventQueue, PopCountsTheEventBeforeDispatch)
{
    // A handler sampling the queue sees itself fired and no longer
    // pending, the view the metric series have always exported.
    EventQueue q;
    q.schedule(10, labelled(1));
    q.schedule(20, labelled(2));
    q.pop();
    EXPECT_EQ(q.firedCount(), 1u);
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.scheduledCount(), 2u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, labelled(1));
    while (!q.empty()) {
        const EventQueue::Fired event = q.pop();
        ++fired;
        if (event.payload.a == 1)
            q.schedule(event.when + 1, labelled(2));
    }
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, PendingCountTracksLiveEvents)
{
    EventQueue q;
    q.schedule(10, labelled(1));
    q.schedule(20, labelled(2));
    EXPECT_EQ(q.pendingCount(), 2u);
    q.pop();
    EXPECT_EQ(q.pendingCount(), 1u);
    q.pop();
    EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueue, SchedulingAtCurrentCycleIsAllowed)
{
    EventQueue q;
    q.schedule(5, labelled(1));
    const Cycle now = q.pop().when;
    q.schedule(now, labelled(2));
    EXPECT_EQ(q.pop().when, 5u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FiredCountAccumulates)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(i + 1, labelled(i));
    drainLabels(q);
    EXPECT_EQ(q.firedCount(), 7u);
}

TEST(EventQueue, FiredEntriesAreReclaimed)
{
    // Fired events leave the heap, so its storage is bounded by the
    // peak number of simultaneously pending events rather than growing
    // with the total event count of a run.
    EventQueue q;
    for (int batch = 0; batch < 1000; ++batch) {
        q.schedule(q.now() + 1, labelled(1));
        q.schedule(q.now() + 2, labelled(2));
        q.pop();
        q.pop();
    }
    EXPECT_EQ(q.firedCount(), 2000u);
    EXPECT_EQ(q.scheduledCount(), 2000u);
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_EQ(q.peakPendingCount(), 2u);
}

TEST(EventQueue, PeakPendingIsAHighWaterMark)
{
    EventQueue q;
    for (std::uint32_t i = 0; i < 5; ++i)
        q.schedule(100 + i, labelled(i));
    drainLabels(q);
    q.schedule(200, labelled(9));
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.peakPendingCount(), 5u);
}

TEST(EventQueue, CopyIsAnIndependentSnapshot)
{
    EventQueue original;
    original.schedule(10, labelled(1));
    original.schedule(10, labelled(2));
    original.schedule(30, labelled(3));
    original.pop();

    EventQueue copy(original);
    EXPECT_EQ(copy.now(), 10u);
    EXPECT_EQ(copy.firedCount(), 1u);
    EXPECT_EQ(copy.scheduledCount(), 3u);
    // Both continue identically, including the sequence tie-break of
    // events scheduled after the copy.
    original.schedule(30, labelled(4));
    copy.schedule(30, labelled(4));
    EXPECT_EQ(drainLabels(original), drainLabels(copy));
    EXPECT_EQ(original.now(), copy.now());
}

/**
 * Naive reference model of the event queue: a flat list of
 * (when, id) pairs, fired in (when, id) order by linear scan. The
 * heap in the real implementation must be observationally identical
 * to this.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Cycle when, std::uint64_t id)
    {
        pending.push_back({when, id});
    }

    /** Fire the (when, id)-minimal entry; the queue must be nonempty. */
    std::pair<Cycle, std::uint64_t>
    fireNext()
    {
        auto best = pending.begin();
        for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (it->first < best->first ||
                (it->first == best->first && it->second < best->second))
                best = it;
        }
        const auto fired = *best;
        pending.erase(best);
        return fired;
    }

    std::size_t
    size() const
    {
        return pending.size();
    }

  private:
    std::vector<std::pair<Cycle, std::uint64_t>> pending;
};

TEST(EventQueueDifferential, RandomOpsMatchReferenceModel)
{
    EventQueue q;
    ReferenceQueue model;
    Rng rng(0x5EED);
    std::uint64_t next_id = 0;
    std::uint64_t fired = 0;

    // Each event carries its id in the payload's b operand.
    const auto fire_and_check = [&] {
        const EventQueue::Fired event = q.pop();
        const auto expected = model.fireNext();
        ++fired;
        EXPECT_EQ(event.payload.b, expected.second);
        EXPECT_EQ(event.when, expected.first);
        EXPECT_EQ(q.now(), expected.first);
    };

    for (int step = 0; step < 20'000; ++step) {
        if (rng.nextDouble() < 0.55) {
            // Schedule at now + [0, 50).
            const Cycle when = q.now() + rng.nextBounded(50);
            const std::uint64_t id = next_id++;
            q.schedule(when, EventPayload{0, 0, id});
            model.schedule(when, id);
        } else if (!q.empty()) {
            fire_and_check();
        }
        ASSERT_EQ(q.pendingCount(), model.size());
        ASSERT_EQ(q.empty(), model.size() == 0);
    }

    // Drain what is left; order must match to the end.
    while (!q.empty())
        fire_and_check();
    EXPECT_EQ(model.size(), 0u);
    EXPECT_EQ(q.firedCount(), fired);
    EXPECT_EQ(q.scheduledCount(), next_id);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    for (int i = 0; i < 1000; ++i) {
        const Cycle when = static_cast<Cycle>((i * 7919) % 5000) + 1;
        q.schedule(when, labelled(0));
    }
    Cycle last = 0;
    bool monotone = true;
    while (!q.empty()) {
        const Cycle when = q.pop().when;
        if (when < last)
            monotone = false;
        last = when;
    }
    EXPECT_TRUE(monotone);
}

} // namespace
} // namespace oscar
