/**
 * @file
 * Discrete-event scheduling kernel.
 *
 * The system model advances cores and the OS core through a single
 * global event queue keyed by cycle. Ties are broken by insertion
 * order, so simulation is fully deterministic.
 *
 * An event is plain data: a cycle, a sequence number and a payload
 * whose meaning belongs to the scheduler (System encodes its event
 * vocabulary in it). The queue is a binary min-heap of trivially
 * copyable items ordered by (cycle, sequence); the caller pops the
 * earliest item and dispatches it itself. Because every item is plain
 * data, the implicit copy constructor is a complete snapshot.
 */

#ifndef OSCAR_SIM_EVENT_QUEUE_HH_
#define OSCAR_SIM_EVENT_QUEUE_HH_

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace oscar
{

/**
 * Plain-data event: a discriminator plus two operand words. The
 * meaning of kind/a/b is private to the component that schedules and
 * dispatches the events.
 */
struct EventPayload
{
    std::uint32_t kind = 0;
    std::uint32_t a = 0;
    std::uint64_t b = 0;
};

/**
 * Min-heap of (cycle, sequence) ordered payload events.
 */
class EventQueue
{
  public:
    /** An event taken off the queue: its cycle and payload. */
    struct Fired
    {
        Cycle when;
        EventPayload payload;
    };

    /**
     * Schedule a payload event at an absolute cycle.
     *
     * @param when Absolute cycle; must be >= now().
     */
    void
    schedule(Cycle when, const EventPayload &payload)
    {
        oscar_assert(when >= currentCycle);
        heap.push(Item{when, nextSeq++, payload});
        peakPending = std::max(peakPending, heap.size());
    }

    /**
     * Take the earliest pending event off the queue. now() advances to
     * its cycle and it counts as fired before the caller dispatches it,
     * so a handler sees itself in firedCount() and not in
     * pendingCount().
     */
    Fired
    pop()
    {
        oscar_assert(!heap.empty());
        const Item item = heap.top();
        heap.pop();
        currentCycle = item.when;
        ++fired;
        return Fired{item.when, item.payload};
    }

    /** True when no events are pending. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t pendingCount() const { return heap.size(); }

    /** Current simulated cycle. */
    Cycle now() const { return currentCycle; }

    /** Total events ever fired. */
    std::uint64_t firedCount() const { return fired; }

    /** Total events ever scheduled. */
    std::uint64_t scheduledCount() const { return nextSeq; }

    /** High-water mark of pendingCount(); bounds the heap's memory. */
    std::size_t peakPendingCount() const { return peakPending; }

  private:
    struct Item
    {
        Cycle when;
        std::uint64_t seq;
        EventPayload payload;
    };

    /** Orders the heap so its top is the (when, seq)-minimal item. */
    struct Later
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Item, std::vector<Item>, Later> heap;
    Cycle currentCycle = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t fired = 0;
    std::size_t peakPending = 0;
};

} // namespace oscar

#endif // OSCAR_SIM_EVENT_QUEUE_HH_
