#include "obs/flight.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "base/invariant.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "sim/eventq.hh"

namespace capcheck::obs
{

namespace
{

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

const char *
cacheOutcomeName(FlightRecord::CacheOutcome outcome)
{
    switch (outcome) {
      case FlightRecord::CacheOutcome::none: return "none";
      case FlightRecord::CacheOutcome::hit: return "hit";
      case FlightRecord::CacheOutcome::miss: return "miss";
    }
    return "?";
}

/** Slowest first; ties resolved by issue order for determinism. */
bool
slowerThan(const FlightRecord &a, const FlightRecord &b)
{
    if (a.endToEnd() != b.endToEnd())
        return a.endToEnd() > b.endToEnd();
    return a.flight < b.flight;
}

void
writeFlightJson(json::JsonWriter &w, const FlightRecord &rec)
{
    w.beginObject();
    w.key("flight").value(rec.flight);
    w.key("task").value(std::uint64_t{rec.task});
    w.key("port").value(std::uint64_t{rec.port});
    w.key("id").value(rec.reqId);
    w.key("cmd").value(memCmdName(rec.cmd));
    w.key("addr").value(hex(rec.addr));
    w.key("size").value(std::uint64_t{rec.size});
    w.key("denied").value(rec.denied);
    w.key("cache").value(cacheOutcomeName(rec.cache));
    w.key("issue").value(rec.issue);
    w.key("grant").value(rec.grant);
    // Per-level arbitration pairs, only for multi-hop trees: the flat
    // paper shapes keep their artefact bytes unchanged.
    if (rec.xbarHops.size() > 1) {
        w.key("xbarHops").beginArray();
        for (const FlightRecord::XbarHop &hop : rec.xbarHops) {
            w.beginObject();
            w.key("offer").value(hop.offer);
            w.key("grant").value(hop.grant);
            w.endObject();
        }
        w.endArray();
    }
    // A path without a check stage (checker "none") has no check
    // timestamps and no check or drain hop.
    if (rec.sawCheck) {
        w.key("checkStart").value(rec.checkStart);
        w.key("checkEnd").value(rec.checkEnd);
    }
    w.key("memAccept").value(rec.sawMem ? rec.memAccept : 0);
    w.key("respond").value(rec.respond);
    w.key("hops").beginObject();
    w.key("xbarWait").value(rec.hopXbar());
    if (rec.sawCheck) {
        w.key("check").value(rec.hopCheck());
        w.key("drain").value(rec.hopDrain());
    }
    w.key("mem").value(rec.hopMem());
    w.endObject();
    w.key("endToEnd").value(rec.endToEnd());
    w.endObject();
}

} // namespace

FlightRecorder::FlightRecorder(EventQueue &eq, unsigned top_n,
                               std::string run_label)
    : eq(eq), topN(top_n), runLabel(std::move(run_label))
{
}

void
FlightRecorder::countIssuesBefore()
{
    // Players issue after a cycle's arbitration (requestPrio), so an
    // issue of cycle c sees every grant and deeper offer of cycle c
    // and none later: count it in before the first change of a later
    // cycle. Same-cycle issues sample consecutive counts in any order.
    while (!issuesAhead.empty() && issuesAhead.top() < eq.curCycle()) {
        issuesAhead.pop();
        ++xbarWaiting;
        xbarOccupancy.sample(xbarWaiting);
    }
}

void
FlightRecorder::onIssue(const MemRequest &req, Cycles cycle)
{
    FlightRecord rec;
    rec.flight = nextFlight++;
    rec.task = req.task;
    rec.port = req.srcPort;
    rec.reqId = req.id;
    rec.cmd = req.cmd;
    rec.addr = req.addr;
    rec.size = req.size;
    rec.issue = cycle;
    ++issued;
    issuesAhead.push(cycle);

    const Key key{req.srcPort, req.id};
    INVARIANT(open.find(key) == open.end(),
              "flight (port %u, id %llu) issued while still in flight",
              req.srcPort, static_cast<unsigned long long>(req.id));
    open.emplace(key, rec);
}

void
FlightRecorder::onOffer(const MemRequest &req, Cycles cycle)
{
    const auto it = open.find(Key{req.srcPort, req.id});
    if (it == open.end())
        return;
    FlightRecord &rec = it->second;
    // Re-entering arbitration at a deeper crossbar level; the first
    // level already rode the issue's count (same cycle).
    if (!rec.xbarHops.empty()) {
        countIssuesBefore();
        ++xbarWaiting;
    }
    rec.xbarHops.push_back(FlightRecord::XbarHop{cycle, 0, false});
}

void
FlightRecorder::onGrant(const MemRequest &req)
{
    const auto it = open.find(Key{req.srcPort, req.id});
    if (it == open.end())
        return; // a master the recorder is not watching
    FlightRecord &rec = it->second;
    rec.grant = eq.curCycle();
    rec.sawGrant = true;

    // Close the oldest open hop: offers and grants both complete in
    // path order, so the first ungranted hop is the level this grant
    // belongs to. Without an offer probe attached (harnesses driving
    // the recorder directly) synthesize the slot-entry boundary.
    bool closed = false;
    for (FlightRecord::XbarHop &hop : rec.xbarHops) {
        if (!hop.granted) {
            hop.grant = rec.grant;
            hop.granted = true;
            closed = true;
            break;
        }
    }
    if (!closed) {
        Cycles entry = rec.issue;
        if (!rec.xbarHops.empty()) {
            const FlightRecord::XbarHop &prev = rec.xbarHops.back();
            entry = (rec.sawCheck && rec.checkEnd >= prev.grant)
                        ? rec.checkEnd
                        : prev.grant;
        }
        rec.xbarHops.push_back(
            FlightRecord::XbarHop{entry, rec.grant, true});
    }

    countIssuesBefore();
    if (xbarWaiting > 0)
        --xbarWaiting;

    // The stage accepts in the same frame as the final pre-check grant
    // (its timing probe fires first, same cycle) — that grant, and
    // only that grant, enters the beat into the stage occupancy. A
    // pass-through check (zero-latency, already at the memory
    // controller this cycle) never occupies the stage; everything else
    // does until its verdict leaves (memory acceptance or a denial
    // response).
    const bool pass_through =
        rec.sawMem && rec.memAccept == eq.curCycle();
    if (!pass_through && rec.sawCheck &&
        rec.checkStart == eq.curCycle() && !rec.checkCounted)
        enterCheckQueue(rec);
    completeIfDone(it);
}

void
FlightRecorder::enterCheckQueue(FlightRecord &rec)
{
    rec.checkCounted = true;
    rec.inCheckQueue = true;
    // Flights whose exit came before this cycle's acceptance are gone
    // (a crossbar below the stage grants before the one above it).
    while (!checkExits.empty() && checkExits.top() <= eq.curCycle()) {
        checkExits.pop();
        if (checkOccupied > 0)
            --checkOccupied;
    }
    ++checkOccupied;
    checkOccupancy.sample(checkOccupied);
    // A flight whose memory acceptance or denial is already known
    // leaves on its cycle.
    if (rec.sawMem)
        leaveCheckQueue(rec, rec.memAccept);
    else if (rec.responded)
        leaveCheckQueue(rec, rec.respond);
}

void
FlightRecorder::leaveCheckQueue(FlightRecord &rec, Cycles cycle)
{
    if (!rec.inCheckQueue)
        return;
    rec.inCheckQueue = false;
    if (cycle > eq.curCycle()) {
        checkExits.push(cycle);
        return;
    }
    if (checkOccupied > 0)
        --checkOccupied;
}

void
FlightRecorder::onCheck(const MemRequest &req, bool allowed,
                        Cycles start, Cycles end)
{
    const auto it = open.find(Key{req.srcPort, req.id});
    if (it == open.end()) {
        pendingCache = FlightRecord::CacheOutcome::none;
        return;
    }
    FlightRecord &rec = it->second;
    // A beat checked again (a stage that hands a refused beat back
    // to be offered once more) keeps its last, accepted check.
    rec.checkStart = start;
    rec.checkEnd = end;
    rec.sawCheck = true;
    rec.denied = !allowed;
    rec.cache = pendingCache;
    pendingCache = FlightRecord::CacheOutcome::none;

    // In a cascade the accepting grant may already have fired this
    // cycle (a deeper level granted in the same cycle as its parent);
    // enter the stage occupancy here in that case — onGrant handles
    // the common order (timing probe first, then the grant probe).
    if (!rec.checkCounted && !rec.sawMem && rec.sawGrant &&
        rec.grant == eq.curCycle())
        enterCheckQueue(rec);
}

void
FlightRecorder::onCacheHit()
{
    pendingCache = FlightRecord::CacheOutcome::hit;
}

void
FlightRecorder::onCacheMiss()
{
    pendingCache = FlightRecord::CacheOutcome::miss;
}

void
FlightRecorder::onMemAccept(const MemRequest &req, Cycles cycle)
{
    const auto it = open.find(Key{req.srcPort, req.id});
    if (it == open.end())
        return;
    FlightRecord &rec = it->second;
    rec.memAccept = cycle;
    rec.sawMem = true;
    leaveCheckQueue(rec, cycle);
}

void
FlightRecorder::onRespond(const MemResponse &resp)
{
    const auto it = open.find(Key{resp.srcPort, resp.id});
    if (it == open.end())
        return;
    FlightRecord &rec = it->second;
    // In a cascade every crossbar on the way up reports the response;
    // the first report (the deepest level) is the flight's.
    if (rec.responded)
        return;
    rec.responded = true;
    rec.respond = resp.due;
    rec.denied |= !resp.ok;
    leaveCheckQueue(rec, resp.due);
    completeIfDone(it);
}

void
FlightRecorder::completeIfDone(std::map<Key, FlightRecord>::iterator it)
{
    FlightRecord &rec = it->second;
    if (!rec.responded || !rec.sawGrant)
        return;
    for (const FlightRecord::XbarHop &hop : rec.xbarHops) {
        if (!hop.granted)
            return;
    }
    complete(rec);
    open.erase(it);
}

void
FlightRecorder::complete(FlightRecord &rec)
{
    INVARIANT(rec.sawGrant && (rec.sawCheck || rec.sawMem),
              "flight %llu (port %u, id %llu) completed without "
              "traversing arbitration and a check stage or memory",
              static_cast<unsigned long long>(rec.flight), rec.port,
              static_cast<unsigned long long>(rec.reqId));

    // Multi-level sanity: every crossbar the beat entered must have
    // granted it, and the first slot entry is the issue itself.
    for (const FlightRecord::XbarHop &hop : rec.xbarHops) {
        INVARIANT(hop.granted,
                  "flight %llu completed with an open xbar hop "
                  "(offered at cycle %llu, never granted)",
                  static_cast<unsigned long long>(rec.flight),
                  static_cast<unsigned long long>(hop.offer));
    }
    INVARIANT(rec.xbarHops.empty() ||
                  rec.xbarHops.front().offer == rec.issue,
              "flight %llu: first xbar offer (cycle %llu) is not the "
              "issue cycle (%llu)",
              static_cast<unsigned long long>(rec.flight),
              static_cast<unsigned long long>(
                  rec.xbarHops.front().offer),
              static_cast<unsigned long long>(rec.issue));

    // The paper's latency claims live and die on this attribution:
    // every end-to-end cycle must be charged to exactly one hop.
    const Cycles hop_sum = rec.hopXbar() + rec.hopCheck() +
                           rec.hopDrain() + rec.hopMem();
    INVARIANT(hop_sum == rec.endToEnd(),
              "flight %llu: per-hop attribution (%llu cycles) does "
              "not equal end-to-end latency (%llu cycles)",
              static_cast<unsigned long long>(rec.flight),
              static_cast<unsigned long long>(hop_sum),
              static_cast<unsigned long long>(rec.endToEnd()));

    ++completed;
    if (rec.denied)
        ++denied;
    if (rec.cache == FlightRecord::CacheOutcome::hit)
        ++cacheHits;
    else if (rec.cache == FlightRecord::CacheOutcome::miss)
        ++cacheMisses;

    endToEnd.sample(rec.endToEnd());
    hopXbar.sample(rec.hopXbar());
    if (rec.sawCheck) {
        hopCheck.sample(rec.hopCheck());
        hopDrain.sample(rec.hopDrain());
    }
    hopMem.sample(rec.hopMem());

    cyclesXbar += static_cast<double>(rec.hopXbar());
    cyclesCheck += static_cast<double>(rec.hopCheck());
    cyclesDrain += static_cast<double>(rec.hopDrain());
    cyclesMem += static_cast<double>(rec.hopMem());
    cyclesTotal += static_cast<double>(rec.endToEnd());

    if (topN == 0)
        return;
    if (slowest.size() < topN) {
        slowest.push_back(rec);
        return;
    }
    auto weakest = std::min_element(
        slowest.begin(), slowest.end(),
        [](const FlightRecord &a, const FlightRecord &b) {
            return slowerThan(b, a); // least slow first
        });
    if (slowerThan(rec, *weakest))
        *weakest = rec;
}

std::vector<FlightRecord>
FlightRecorder::slowestFlights() const
{
    std::vector<FlightRecord> sorted = slowest;
    std::sort(sorted.begin(), sorted.end(), slowerThan);
    return sorted;
}

void
FlightRecorder::writeFlightsFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot write flight file '%s'", path.c_str());
        return;
    }
    json::JsonWriter w(os);
    w.beginObject();
    w.key("label").value(runLabel);
    w.key("topN").value(std::uint64_t{topN});
    w.key("issued").value(issuedFlights());
    w.key("completed").value(completedFlights());
    w.key("denied").value(
        static_cast<std::uint64_t>(denied.value()));
    w.key("flights").beginArray();
    for (const FlightRecord &rec : slowestFlights())
        writeFlightJson(w, rec);
    w.endArray();
    w.endObject();
    os << "\n";
}

void
FlightRecorder::writeLatencyFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot write latency file '%s'", path.c_str());
        return;
    }
    json::JsonWriter w(os);
    w.beginObject();
    w.key("label").value(runLabel);
    w.key("flights");
    root.dumpJson(w);
    w.endObject();
    os << "\n";
}

void
FlightRecorder::writeEmptyFlightsFile(const std::string &path,
                                      unsigned top_n,
                                      const std::string &run_label)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot write flight file '%s'", path.c_str());
        return;
    }
    json::JsonWriter w(os);
    w.beginObject();
    w.key("label").value(run_label);
    w.key("topN").value(std::uint64_t{top_n});
    w.key("issued").value(std::uint64_t{0});
    w.key("completed").value(std::uint64_t{0});
    w.key("denied").value(std::uint64_t{0});
    w.key("flights").beginArray();
    w.endArray();
    w.endObject();
    os << "\n";
}

void
FlightRecorder::writeEmptyLatencyFile(const std::string &path,
                                      const std::string &run_label)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot write latency file '%s'", path.c_str());
        return;
    }
    json::JsonWriter w(os);
    w.beginObject();
    w.key("label").value(run_label);
    w.key("flights").beginObject();
    w.endObject();
    w.endObject();
    os << "\n";
}

} // namespace capcheck::obs
