/**
 * @file
 * Request queue of a dedicated (non-SMT) OS core.
 *
 * Section V-C: "if the OS core is handling an off-loading request when
 * an additional request comes in, the new request must be stalled
 * until the OS core becomes free." The queue records the delay each
 * request waits, the statistic the scalability study reports.
 *
 * The multi-OS-core topology generalization instantiates one queue per
 * OS core. Each queue keeps its own delay statistics (as a RunningStat
 * and as a mergeable LatencyHistogram, so per-queue distributions pool
 * exactly into the system-wide one), and supports the two balancing
 * moves of the work-stealing dispatch policy: stealOldest() lets an
 * idle peer take this queue's longest-waiting request, and
 * adoptStolen() admits such a request on the stealing core's queue.
 */

#ifndef OSCAR_OS_OS_CORE_QUEUE_HH_
#define OSCAR_OS_OS_CORE_QUEUE_HH_

#include <cstdint>
#include <deque>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace oscar
{

class LogHistogram;
class MetricRegistry;
class TraceSink;

/** One off-loaded request waiting for the OS core. */
struct OffloadRequest
{
    /** Thread that off-loaded. */
    std::uint32_t threadId = 0;
    /** Cycle the request arrived at the OS core. */
    Cycle arrival = 0;
};

/**
 * FIFO admission control for a single OS core.
 */
class OsCoreQueue
{
  public:
    /**
     * Offer a request.
     *
     * @param req The request.
     * @param now Current cycle.
     * @return true when the OS core was idle and the request may start
     *         immediately; false when it was queued.
     */
    bool offer(const OffloadRequest &req, Cycle now);

    /**
     * The OS core finished its current request.
     *
     * @param now Completion cycle.
     * @return The next request to start (its queue delay is recorded),
     *         or nullptr-like: use hasNext()/next() pattern instead.
     */
    bool completeCurrent(Cycle now, OffloadRequest &next_out);

    /**
     * Remove and return the oldest waiting request so an idle peer
     * queue can execute it (work stealing). The in-service request is
     * untouched; its wait is recorded by the adopting queue. Must not
     * be called on an empty queue.
     */
    OffloadRequest stealOldest();

    /**
     * Admit a request stolen from a peer queue: the core becomes busy
     * and the request's wait (start - arrival) is recorded here, on
     * the queue that actually serves it. Must be idle.
     *
     * @param req The stolen request.
     * @param start Cycle service will start (completion time of the
     *        steal transfer).
     */
    void adoptStolen(const OffloadRequest &req, Cycle start);

    /** True while a request occupies the OS core. */
    bool busy() const { return coreBusy; }

    /** Requests waiting (excluding the one in service). */
    std::size_t depth() const { return waiting.size(); }

    /** In-flight load: waiting requests plus the one in service. */
    std::size_t load() const { return waiting.size() + (coreBusy ? 1 : 0); }

    /** Distribution of cycles requests waited before starting. */
    const RunningStat &queueDelay() const { return delayStat; }

    /** Wait distribution as a mergeable histogram (same samples). */
    const LatencyHistogram &waitHistogram() const { return waitHist; }

    /** Total requests ever admitted (started service). */
    std::uint64_t admitted() const { return admittedCount; }

    /** Requests this queue's core stole from peers. */
    std::uint64_t stealsIn() const { return stealsInCount; }

    /** Requests peers stole out of this queue. */
    std::uint64_t stealsOut() const { return stealsOutCount; }

    /** Arrivals that overflowed into this queue. */
    std::uint64_t spillsIn() const { return spillsInCount; }

    /** Arrivals that overflowed out of this queue. */
    std::uint64_t spillsOut() const { return spillsOutCount; }

    /** Record one overflow into this queue (spill bookkeeping). */
    void countSpillIn() { ++spillsInCount; }

    /** Record one overflow away from this queue (spill bookkeeping). */
    void countSpillOut() { ++spillsOutCount; }

    /** Reset statistics (not occupancy). */
    void resetStats();

    /**
     * Attach a trace sink: every offer emits a queue-enter event
     * (depth 0 when the OS core was idle and service starts at once)
     * and every delayed admission a queue-exit event with the wait.
     */
    void setTraceSink(TraceSink *sink) { trace = sink; }

    /**
     * Identify this queue among K: its index and whether queue events
     * should carry it. Single-queue systems leave annotation off so
     * their traces stay byte-identical to the legacy single-OS-core
     * format.
     */
    void setQueueId(std::uint32_t id, bool annotate_events);

    /** Queue index among the K OS-core queues. */
    std::uint32_t queueId() const { return queueIndex; }

    /**
     * Register queue metrics under `<prefix>`: an offers counter
     * polling the queue's never-reset offer count, a depth gauge, and
     * a registry-owned wait-time histogram recorded at the same sites
     * as queueDelay() (but never reset, and log2-bucketed rather than
     * the LatencyHistogram's layout). Call at most once; the registry
     * must outlive the queue.
     * The default prefix preserves the legacy single-queue names
     * (`os.queue.offers`, ...); multi-queue systems pass
     * `os.queue.q<k>.`.
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix = "os.queue.");

    /**
     * Detach the trace sink and wait histogram after a snapshot copy:
     * the copied pointers alias the original's sink and registry. The
     * queue itself (occupancy, stats) is left untouched.
     */
    void
    dropInstrumentation()
    {
        trace = nullptr;
        mWait = nullptr;
    }

  private:
    /** Record one admission wait in every delay statistic. */
    void recordWait(Cycle waited);

    std::deque<OffloadRequest> waiting;
    bool coreBusy = false;
    RunningStat delayStat;
    LatencyHistogram waitHist;
    std::uint64_t admittedCount = 0;
    /** Requests ever offered; never reset (read by metrics only). */
    std::uint64_t offerCount = 0;
    std::uint64_t stealsInCount = 0;
    std::uint64_t stealsOutCount = 0;
    std::uint64_t spillsInCount = 0;
    std::uint64_t spillsOutCount = 0;
    std::uint32_t queueIndex = 0;
    bool annotate = false;
    TraceSink *trace = nullptr;

    /** Registry-owned histogram; null until registerMetrics(). */
    LogHistogram *mWait = nullptr;
};

} // namespace oscar

#endif // OSCAR_OS_OS_CORE_QUEUE_HH_
