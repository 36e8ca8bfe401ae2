/**
 * @file
 * Request flight recorder: every DMA beat gets a flight ID when its
 * accelerator reports its issue, per-hop timestamps are recorded as it
 * traverses xbar arbitration -> check stage (cache hit / miss walk) ->
 * memory controller -> response, and the hops are aggregated into
 * log2-bucketed latency histograms (p50/p95/p99), per-component cycle
 * attribution, queue-occupancy stats and a bounded table of the
 * slowest flights. The per-hop attribution of every completed flight
 * must sum exactly to its end-to-end latency — enforced by an
 * INVARIANT, so a missed or re-ordered probe aborts loudly instead of
 * producing subtly wrong cost breakdowns.
 *
 * All timestamps are simulated cycles, so both artefact files (flights
 * JSON, latency JSON) are byte-identical at any --jobs. The issue,
 * the first slot entry, memory acceptance and the response can be
 * reported ahead of their cycles (the player computes its issues, a
 * fixed-latency pipeline its cycles at grant): those probes carry
 * their cycles, an issue's crossbar-occupancy sample is taken once its
 * cycle has passed, and a flight completes once its response is
 * reported and every crossbar it entered has granted it.
 */

#ifndef CAPCHECK_OBS_FLIGHT_HH
#define CAPCHECK_OBS_FLIGHT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "mem/packet.hh"

namespace capcheck
{
class EventQueue;
}

namespace capcheck::obs
{

/** One DMA request's per-hop timeline, keyed by (srcPort, id). */
struct FlightRecord
{
    /** Issue-order flight ID (deterministic: one event queue). */
    std::uint64_t flight = 0;

    TaskId task = invalidTaskId;
    PortId port = 0;
    std::uint64_t reqId = 0;
    MemCmd cmd = MemCmd::read;
    Addr addr = 0;
    std::uint32_t size = 0;

    /** @{ Hop timestamps (simulated cycles). */
    Cycles issue = 0;      ///< left the accelerator into its xbar slot
    Cycles grant = 0;      ///< won the *last* arbitration it entered
    Cycles checkStart = 0; ///< accepted by the check stage
    Cycles checkEnd = 0;   ///< check verdict due (incl. miss walk)
    Cycles memAccept = 0;  ///< entered the memory controller
    Cycles respond = 0;    ///< response delivered back to the master
    /** @} */

    /** One crossbar traversal: slot entry (offer) to arbitration win. */
    struct XbarHop
    {
        Cycles offer = 0;
        Cycles grant = 0;
        bool granted = false;
    };

    /**
     * Per-level arbitration hops in path order, one per crossbar the
     * beat crossed. Cascaded trees push several; the flat paper shape
     * exactly one, keeping its artefacts byte-identical.
     */
    std::vector<XbarHop> xbarHops;

    bool sawGrant = false;
    bool sawCheck = false;
    bool sawMem = false;
    /** The response was reported (its cycle is @c respond). */
    bool responded = false;
    /** @{ Check-stage occupancy bookkeeping: entered once, and still
     *  counted until its exit is known. */
    bool checkCounted = false;
    bool inCheckQueue = false;
    /** @} */

    bool denied = false;

    enum class CacheOutcome : std::uint8_t
    {
        none, ///< no capability cache in the path
        hit,
        miss,
    };
    CacheOutcome cache = CacheOutcome::none;

    /** @{ Per-hop cycle attribution of a completed flight. The hops
     *  partition the issue->respond timeline exactly, at any tree
     *  depth (a path without a check stage, checker "none", has no
     *  check or drain hop): pre-check offers chain contiguously from
     *  the issue
     *  (each level's offer lands in the previous level's grant frame),
     *  the check window is explicit, drain runs from the verdict to
     *  the next observed boundary (the first post-check crossbar
     *  offer, else memory acceptance / the response), and every
     *  in-crossbar wait is an (offer, grant) pair. */
    Cycles hopXbar() const
    {
        if (xbarHops.empty())
            return grant - issue;
        Cycles total = 0;
        for (const XbarHop &hop : xbarHops)
            total += hop.grant - hop.offer;
        return total;
    }
    Cycles hopCheck() const { return checkEnd - checkStart; }
    Cycles hopDrain() const
    {
        if (!sawCheck)
            return 0; // no check stage on the path: no drain either
        Cycles next = (denied || !sawMem) ? respond : memAccept;
        for (const XbarHop &hop : xbarHops) {
            if (hop.offer >= checkEnd) {
                next = hop.offer;
                break;
            }
        }
        return next - checkEnd;
    }
    Cycles hopMem() const { return sawMem ? respond - memAccept : 0; }
    Cycles endToEnd() const { return respond - issue; }
    /** @} */
};

class FlightRecorder
{
  public:
    /**
     * @param eq the simulation clock all timestamps come from.
     * @param top_n slowest flights kept for the flight table.
     * @param run_label label embedded in both artefacts.
     */
    FlightRecorder(EventQueue &eq, unsigned top_n,
                   std::string run_label);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** @{ Probe entry points, called by RunObserver listeners.
     *  @p cycle: when the beat leaves the accelerator (onIssue) or
     *  enters a crossbar slot (onOffer); both may lie ahead. */
    void onIssue(const MemRequest &req, Cycles cycle);
    void onOffer(const MemRequest &req, Cycles cycle);
    void onGrant(const MemRequest &req);
    void onCheck(const MemRequest &req, bool allowed, Cycles start,
                 Cycles end);
    void onCacheHit();
    void onCacheMiss();
    /** @p cycle: when the request enters the controller. */
    void onMemAccept(const MemRequest &req, Cycles cycle);
    /** The response reaches the master on @c resp.due. */
    void onRespond(const MemResponse &resp);
    /** @} */

    /** @{ Artefact writers (deterministic byte-for-byte). */
    void writeFlightsFile(const std::string &path) const;
    void writeLatencyFile(const std::string &path) const;
    /** @} */

    /** @{ Valid-but-empty artefacts for runs with no timed platform. */
    static void writeEmptyFlightsFile(const std::string &path,
                                      unsigned top_n,
                                      const std::string &run_label);
    static void writeEmptyLatencyFile(const std::string &path,
                                      const std::string &run_label);
    /** @} */

    /** The aggregate stat tree (root group "flights"). */
    const stats::StatGroup &statsRoot() const { return root; }

    std::uint64_t issuedFlights() const
    {
        return static_cast<std::uint64_t>(issued.value());
    }
    std::uint64_t completedFlights() const
    {
        return static_cast<std::uint64_t>(completed.value());
    }

    /** Completed slowest flights, slowest first (<= topN entries). */
    std::vector<FlightRecord> slowestFlights() const;

  private:
    using Key = std::pair<PortId, std::uint64_t>;

    void complete(FlightRecord &rec);
    /** Complete and drop the flight once its response is reported and
     *  every crossbar it entered has granted it. */
    void completeIfDone(std::map<Key, FlightRecord>::iterator it);
    /** Count in the issues of cycles before the current one: their
     *  crossbar occupancy is the count once that cycle's arbitration
     *  is done. Runs before every other occupancy change. */
    void countIssuesBefore();
    /** Count @p rec into the check-stage occupancy and sample it. */
    void enterCheckQueue(FlightRecord &rec);
    /** @p rec leaves the check stage on @p cycle (may lie ahead). */
    void leaveCheckQueue(FlightRecord &rec, Cycles cycle);

    EventQueue &eq;
    unsigned topN;
    std::string runLabel;

    std::uint64_t nextFlight = 0;
    std::map<Key, FlightRecord> open;

    /** Outcome of the capability-cache access inside the current
     *  synchronous check, consumed by the next onCheck(). */
    FlightRecord::CacheOutcome pendingCache =
        FlightRecord::CacheOutcome::none;

    /** @{ Live queue depths (occupancy sampled on every entry). */
    unsigned xbarWaiting = 0;
    /** Issue cycles reported ahead and not yet counted in. */
    std::priority_queue<Cycles, std::vector<Cycles>, std::greater<>>
        issuesAhead;
    unsigned checkOccupied = 0;
    /** @} */
    /** Exit cycles still ahead of flights counted in checkOccupied. */
    std::priority_queue<Cycles, std::vector<Cycles>, std::greater<>>
        checkExits;

    /** Unsorted pool of the slowest flights seen so far. */
    std::vector<FlightRecord> slowest;

    stats::StatGroup root{"flights"};
    stats::Scalar issued{root, "issued", "DMA flights issued"};
    stats::Scalar completed{root, "completed",
                            "flights with a delivered response"};
    stats::Scalar denied{root, "denied",
                         "flights denied by the protection check"};
    stats::Scalar cacheHits{root, "cacheHits",
                            "flights served by a cap-cache hit"};
    stats::Scalar cacheMisses{root, "cacheMisses",
                              "flights that walked the in-memory "
                              "capability table"};
    stats::Histogram endToEnd{root, "endToEnd",
                              "issue-to-response latency (cycles)"};

    stats::StatGroup hopsGroup{"hops", &root};
    stats::Histogram hopXbar{hopsGroup, "xbarWait",
                             "cycles waiting for xbar arbitration"};
    stats::Histogram hopCheck{hopsGroup, "check",
                              "cycles in the check stage (incl. "
                              "cap-cache miss walks)"};
    stats::Histogram hopDrain{hopsGroup, "drain",
                              "cycles between check verdict and "
                              "leaving the stage"};
    stats::Histogram hopMem{hopsGroup, "mem",
                            "cycles in the memory controller"};

    stats::StatGroup attributionGroup{"attribution", &root};
    stats::Scalar cyclesXbar{attributionGroup, "xbarWaitCycles",
                             "total cycles attributed to arbitration"};
    stats::Scalar cyclesCheck{attributionGroup, "checkCycles",
                              "total cycles attributed to checking"};
    stats::Scalar cyclesDrain{attributionGroup, "drainCycles",
                              "total cycles attributed to post-check "
                              "draining"};
    stats::Scalar cyclesMem{attributionGroup, "memCycles",
                            "total cycles attributed to memory"};
    stats::Scalar cyclesTotal{attributionGroup, "endToEndCycles",
                              "total end-to-end cycles (equals the "
                              "sum of the four hop totals)"};

    stats::StatGroup queueGroup{"queues", &root};
    stats::Histogram xbarOccupancy{queueGroup, "xbarOccupancy",
                                   "waiting requests across xbar "
                                   "master slots at each issue"};
    stats::Histogram checkOccupancy{queueGroup, "checkOccupancy",
                                    "requests inside the check stage "
                                    "at each acceptance"};
};

} // namespace capcheck::obs

#endif // CAPCHECK_OBS_FLIGHT_HH
