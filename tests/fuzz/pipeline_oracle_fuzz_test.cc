/**
 * @file
 * Lockstep oracle for the DMA pipeline. Each seeded scenario builds
 * the same platform twice, once from the production player, crossbar,
 * check stage and memory controller (the player computes its ticks and
 * hands each beat to the crossbar ahead; every hand-over carries its
 * entry and grantable cycles; stages and the controller compute their
 * cycles at grant; a refused crossbar waits for its refuser's retry;
 * ticks continue inline) and once from the ticking references in
 * tests/oracle/ref_pipeline.hh, which push every beat on the current
 * cycle, poll every cycle, order a cycle's crossbar ticks by tree
 * level and run one queued dispatch at a time (EventQueue::step()
 * never continues a tick inline). Both replay the same random traces.
 * Scenarios vary:
 *
 *  - 1-8 players with 1-16 credits, streamed buffers, and start cycles
 *    early or while other players are mid-trace;
 *  - delays (zero-cycle ones included) and barriers;
 *  - denials by address, check latencies 0-8 and cache-miss walks
 *    (which fill a stage until its depth guard refuses);
 *  - memory latencies 1-40, one or two memory channels, bursts 1-4;
 *  - trees of one, two or three crossbar levels, with or without a
 *    check stage above the crossbars of each level below the root
 *    (the stage then waits on its parent's slot), and below the root
 *    none, one stage, or one stage per memory channel behind the
 *    channel router (a refusal then holds one channel only).
 *
 * Every beat's issue, grant and response cycle, each player's finish
 * cycle and every component stat must agree. A mismatch names the
 * scenario seed, the player and the beat (its op index in issue order).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "accel/trace_player.hh"
#include "base/random.hh"
#include "fuzz_env.hh"
#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"
#include "mem/router.hh"
#include "../oracle/ref_pipeline.hh"
#include "protect/check_stage.hh"

namespace capcheck
{
namespace
{

using workloads::BufferAccess;
using workloads::BufferPlacement;

constexpr Addr extBase = 0x10000;
constexpr std::uint64_t extBytes = 256;
constexpr Addr streamBase = 0x80000;
/** Address space per player: its buffers never overlap another's. */
constexpr Addr playerStride = 0x100000;

/**
 * Deterministic checker: a fixed latency, denials by address, and a
 * cache-miss walk on the addresses a hash picks.
 */
class FuzzChecker : public protect::ProtectionChecker
{
  public:
    FuzzChecker(Cycles latency, Cycles miss_extra,
                std::vector<Addr> denied)
        : latency(latency), missExtra(miss_extra),
          denied(std::move(denied))
    {
    }

    protect::CheckResult
    check(const MemRequest &req) override
    {
        extra = ((req.addr >> 3) * 0x9e3779b97f4a7c15ull) >> 61 == 0
                    ? missExtra
                    : 0;
        for (const Addr addr : denied) {
            if (req.addr == addr)
                return protect::CheckResult::deny("fuzz");
        }
        return protect::CheckResult::allow();
    }

    Cycles checkLatency() const override { return latency; }
    Cycles lastExtraLatency() const override { return extra; }
    protect::SchemeProperties properties() const override { return {}; }
    std::string name() const override { return "fuzz"; }

  private:
    Cycles latency;
    Cycles missExtra;
    Cycles extra = 0;
    std::vector<Addr> denied;
};

/** One body op, appended to both players' traces. */
struct Op
{
    accel::TraceRecord::Kind kind;
    MemCmd cmd = MemCmd::read;
    std::uint64_t value = 0; ///< access: offset; delay: cycles
};

struct PlayerSetup
{
    workloads::KernelSpec spec;
    std::vector<Op> ops;
    Cycles start = 0;
};

/** Check stages below the root crossbar. */
enum class RootStage
{
    none,       ///< root -> memory
    above,      ///< root -> stage -> memory (router)
    perChannel, ///< root -> router -> one stage per channel -> memory
};

struct Scenario
{
    std::vector<PlayerSetup> players;
    Cycles checkLatency = 1;
    Cycles missExtra = 0;
    Cycles memLatency = 30;
    unsigned channels = 1;
    unsigned maxBurst = 1;
    /** Crossbar levels, leaves (level 0) to the root. */
    unsigned levels = 1;
    /** Players per leaf crossbar. */
    unsigned perLeaf = 1;
    /** Child crossbars per crossbar above the leaves. */
    unsigned fanout = 1;
    /** Per level below the root: a stage above each of its crossbars. */
    std::vector<bool> stageAbove;
    RootStage rootStage = RootStage::above;
    std::vector<Addr> denied;
};

Scenario
makeScenario(Rng &rng)
{
    Scenario sc;
    const unsigned players = 1 + rng.nextBounded(8);
    // Short pipelines half the time: responses and denials then land
    // on the cycles right after an issue, where the wake rules act.
    const bool short_pipe = rng.nextBool(0.5);
    sc.checkLatency = rng.nextBounded(short_pipe ? 3 : 9);
    sc.missExtra = rng.nextBool(0.4) ? 1 + rng.nextBounded(12) : 0;
    sc.memLatency = 1 + rng.nextBounded(short_pipe ? 4 : 40);
    sc.channels = rng.nextBool(0.4) ? 2 : 1;
    sc.maxBurst = rng.nextBool(0.25) ? 2 + rng.nextBounded(3) : 1;
    const std::uint64_t shape = rng.nextBounded(20);
    sc.levels = shape < 6 ? 1 : shape < 13 ? 2 : 3;
    sc.perLeaf = sc.levels == 1 ? players : 1 + rng.nextBounded(players);
    sc.fanout = 1 + rng.nextBounded(3);
    for (unsigned l = 0; l + 1 < sc.levels; ++l)
        sc.stageAbove.push_back(rng.nextBool(0.5));
    // Per-channel stages behind a router half the time there are two
    // channels: a stage's refusal then holds one channel, and a beat
    // for the other may win arbitration meanwhile.
    const std::uint64_t root_stage = rng.nextBounded(10);
    if (sc.channels > 1 && root_stage < 5) {
        sc.rootStage = RootStage::perChannel;
        // Miss walks fill a channel's stage until its guard refuses.
        sc.missExtra = 4 + rng.nextBounded(12);
    } else {
        sc.rootStage =
            root_stage < 8 ? RootStage::above : RootStage::none;
    }
    for (unsigned p = 0; p < players; ++p) {
        PlayerSetup ps;
        ps.spec.name = "fuzz";
        ps.spec.buffers.push_back({"ext", extBytes,
                                   BufferAccess::readWrite,
                                   BufferPlacement::external});
        if (rng.nextBool(0.3)) {
            ps.spec.buffers.push_back(
                {"stream", 8 * (1 + rng.nextBounded(24)),
                 BufferAccess::readWrite, BufferPlacement::streamed});
        }
        ps.spec.timing.maxOutstanding = 1 + rng.nextBounded(16);
        ps.spec.timing.startupCycles = rng.nextBounded(4);
        // Most players start together; some join mid-wave.
        ps.start = rng.nextBool(0.25) ? rng.nextBounded(300)
                                      : rng.nextBounded(6);
        const unsigned len = rng.nextBounded(40);
        for (unsigned i = 0; i < len; ++i) {
            const std::uint64_t pick = rng.nextBounded(10);
            if (pick < 6) {
                ps.ops.push_back(
                    {accel::TraceRecord::Kind::access,
                     rng.nextBool(0.3) ? MemCmd::write : MemCmd::read,
                     8 * rng.nextBounded(extBytes / 8)});
            } else if (pick < 9) {
                const Cycles cycles = rng.nextBool(0.3)
                                          ? 0
                                          : rng.nextBool(0.8)
                                                ? 1 + rng.nextBounded(4)
                                                : rng.nextBounded(60);
                ps.ops.push_back(
                    {accel::TraceRecord::Kind::delay, MemCmd::read,
                     cycles});
            } else {
                ps.ops.push_back({accel::TraceRecord::Kind::barrier});
            }
        }
        sc.players.push_back(std::move(ps));
    }
    // Deny beats the traces really issue, so denials land amid
    // in-flight beats, delays and barriers.
    for (unsigned d = 0; d < 2 && rng.nextBool(0.4); ++d) {
        const unsigned p = rng.nextBounded(players);
        const std::vector<Op> &ops = sc.players[p].ops;
        if (ops.empty())
            continue;
        const Op &op = ops[rng.nextBounded(ops.size())];
        if (op.kind == accel::TraceRecord::Kind::access)
            sc.denied.push_back(p * playerStride + extBase + op.value);
    }
    return sc;
}

/** Everything one platform's run leaves behind. */
struct Observation
{
    /** (port, id) -> "issue I grants G.. due D ok|denied". */
    std::map<std::pair<PortId, std::uint64_t>, std::string> beats;
    std::vector<std::string> finishes;
    std::string stats;
};

/** Flight of one beat, as the probes saw it. */
struct BeatLog
{
    Cycles issue = 0;
    std::vector<Cycles> grants;
    Cycles due = 0;
    bool responded = false;
    bool ok = true;
};

/**
 * One platform from the component types @p Player, @p Xbar, @p Stage
 * and @p Mem, wired as the scenario says, run to completion.
 */
template <typename Player, typename Xbar, typename Stage, typename Mem>
Observation
run(const Scenario &sc)
{
    constexpr bool production = std::is_same_v<Player, accel::TracePlayer>;
    EventQueue eq;
    stats::StatGroup root("soc");
    const unsigned players = static_cast<unsigned>(sc.players.size());

    std::vector<std::unique_ptr<FuzzChecker>> checkers;
    std::vector<std::unique_ptr<Stage>> stages;
    auto make_stage = [&](const std::string &name) {
        checkers.push_back(std::make_unique<FuzzChecker>(
            sc.checkLatency, sc.missExtra, sc.denied));
        stages.push_back(std::make_unique<Stage>(eq, &root,
                                                 *checkers.back(), name));
        return stages.back().get();
    };
    std::vector<std::unique_ptr<Mem>> mems;
    for (unsigned c = 0; c < sc.channels; ++c) {
        mems.push_back(std::make_unique<Mem>(
            eq, &root, sc.memLatency, "memctrl" + std::to_string(c)));
    }
    std::unique_ptr<AddrRouter> router;
    if (sc.channels > 1) {
        router = std::make_unique<AddrRouter>(eq, &root, sc.channels, 64,
                                              "router");
        for (unsigned c = 0; c < sc.channels; ++c) {
            RequestPort &channel = router->memSide(c);
            if (sc.rootStage == RootStage::perChannel) {
                Stage *stage = make_stage("cstage" + std::to_string(c));
                channel.bind(stage->cpuSide());
                stage->memSide().bind(mems[c]->cpuSide());
            } else {
                channel.bind(mems[c]->cpuSide());
            }
        }
    }
    ResponsePort *memory =
        router ? &router->cpuSide() : &mems.front()->cpuSide();
    if (!router && sc.rootStage == RootStage::perChannel) {
        Stage *stage = make_stage("cstage0");
        stage->memSide().bind(*memory);
        memory = &stage->cpuSide();
    }

    // Crossbars level by level, leaves first; each level's crossbars
    // feed their parents' slots, through a stage where the scenario
    // puts one.
    std::vector<unsigned> width(sc.levels);
    width[0] = (players + sc.perLeaf - 1) / sc.perLeaf;
    for (unsigned l = 1; l < sc.levels; ++l) {
        width[l] = l + 1 == sc.levels
                       ? 1
                       : (width[l - 1] + sc.fanout - 1) / sc.fanout;
    }
    std::vector<std::vector<std::unique_ptr<Xbar>>> xbars(sc.levels);
    for (unsigned l = sc.levels; l-- > 0;) {
        const unsigned below = sc.levels - 1 - l;
        for (unsigned i = 0; i < width[l]; ++i) {
            unsigned slots = sc.perLeaf;
            if (l + 1 == sc.levels && l > 0)
                slots = width[l - 1];
            else if (l > 0)
                slots = sc.fanout;
            const std::string name =
                "xbar" + std::to_string(l) + "_" + std::to_string(i);
            if constexpr (production) {
                xbars[l].push_back(std::make_unique<Xbar>(
                    eq, &root, slots, sc.maxBurst, name));
            } else {
                xbars[l].push_back(std::make_unique<Xbar>(
                    eq, &root, slots, sc.maxBurst, name, below));
            }
        }
    }
    for (unsigned l = 0; l < sc.levels; ++l) {
        for (unsigned i = 0; i < width[l]; ++i) {
            RequestPort &out = xbars[l][i]->memSide();
            ResponsePort *up = memory;
            if (l + 1 < sc.levels) {
                const bool root_parent = l + 2 == sc.levels;
                up = &xbars[l + 1][root_parent ? 0 : i / sc.fanout]
                          ->accelSide(root_parent ? i : i % sc.fanout);
            }
            const bool staged = l + 1 < sc.levels
                                    ? sc.stageAbove[l]
                                    : sc.rootStage == RootStage::above;
            if (staged) {
                Stage *stage = make_stage("stage" + std::to_string(l) +
                                          "_" + std::to_string(i));
                out.bind(stage->cpuSide());
                stage->memSide().bind(*up);
            } else {
                out.bind(*up);
            }
        }
    }

    std::map<std::pair<PortId, std::uint64_t>, BeatLog> log;
    for (auto &level : xbars) {
        for (auto &xbar : level) {
            xbar->grantProbe().attach([&](const MemRequest &req) {
                log[{req.srcPort, req.id}].grants.push_back(
                    eq.curCycle());
            });
        }
    }
    for (auto &leaf : xbars[0]) {
        leaf->respondProbe().attach([&](const MemResponse &resp) {
            BeatLog &beat = log[{resp.srcPort, resp.id}];
            EXPECT_FALSE(beat.responded) << "response reported twice";
            beat.responded = true;
            beat.due = resp.due;
            beat.ok = resp.ok;
        });
    }

    std::vector<std::unique_ptr<Player>> live;
    for (unsigned p = 0; p < players; ++p) {
        const PlayerSetup &ps = sc.players[p];
        accel::InstanceTrace trace;
        for (const Op &op : ps.ops) {
            switch (op.kind) {
              case accel::TraceRecord::Kind::access:
                trace.access(op.cmd, 0, op.value, 8);
                break;
              case accel::TraceRecord::Kind::delay:
                trace.delay(op.value);
                break;
              case accel::TraceRecord::Kind::barrier:
                trace.barrier();
                break;
            }
        }
        const Addr base = p * playerStride;
        std::vector<BufferMapping> buffers = {
            {base + extBase, extBytes, {}},
            {base + streamBase, 4096, {}}};
        buffers.resize(ps.spec.buffers.size());
        if constexpr (production) {
            live.push_back(std::make_unique<Player>(
                eq, &root, "p" + std::to_string(p), ps.spec,
                std::make_shared<const accel::InstanceTrace>(
                    std::move(trace)),
                buffers, p, p, accel::AddressingMode{}));
        } else {
            live.push_back(std::make_unique<Player>(
                eq, &root, "p" + std::to_string(p), ps.spec,
                std::move(trace), buffers, p, p));
        }
        live.back()->memSide().bind(
            xbars[0][p / sc.perLeaf]->accelSide(p % sc.perLeaf));
        if constexpr (production) {
            live.back()->issueProbe().attach([&](const TimedRequest &ev) {
                log[{ev.req->srcPort, ev.req->id}].issue = ev.cycle;
            });
        } else {
            live.back()->issueProbe().attach([&](const MemRequest &req) {
                log[{req.srcPort, req.id}].issue = eq.curCycle();
            });
        }
    }
    for (unsigned p = 0; p < players; ++p)
        live[p]->start(sc.players[p].start);
    if constexpr (production) {
        eq.run();
    } else {
        while (!eq.empty())
            eq.step();
    }

    Observation obs;
    for (const auto &[key, beat] : log) {
        std::ostringstream os;
        os << "issue " << beat.issue << " grants";
        for (const Cycles g : beat.grants)
            os << ' ' << g;
        if (beat.responded)
            os << " due " << beat.due << (beat.ok ? " ok" : " denied");
        else
            os << " no response";
        obs.beats[key] = os.str();
    }
    for (unsigned p = 0; p < players; ++p) {
        std::ostringstream os;
        os << (live[p]->done() ? "finish " : "stuck ")
           << live[p]->finishCycle() << (live[p]->failed() ? " failed" : "");
        obs.finishes.push_back(os.str());
    }
    std::ostringstream stats;
    root.dump(stats);
    obs.stats = stats.str();
    return obs;
}

/** First difference between two observations; empty when equal. */
std::string
compare(const Observation &ref, const Observation &prod)
{
    for (const auto &[key, want] : ref.beats) {
        const auto it = prod.beats.find(key);
        const std::string got =
            it == prod.beats.end() ? "never issued" : it->second;
        if (got != want) {
            return "player " + std::to_string(key.first) + " op " +
                   std::to_string(key.second) + ": reference '" + want +
                   "', production '" + got + "'";
        }
    }
    for (const auto &[key, got] : prod.beats) {
        if (!ref.beats.count(key)) {
            return "player " + std::to_string(key.first) + " op " +
                   std::to_string(key.second) +
                   ": reference never issued it, production '" + got +
                   "'";
        }
    }
    for (std::size_t p = 0; p < ref.finishes.size(); ++p) {
        if (ref.finishes[p] != prod.finishes[p]) {
            return "player " + std::to_string(p) + ": reference '" +
                   ref.finishes[p] + "', production '" +
                   prod.finishes[p] + "'";
        }
    }
    if (ref.stats != prod.stats) {
        return "stats differ:\n--- reference\n" + ref.stats +
               "--- production\n" + prod.stats;
    }
    return "";
}

TEST(PipelineOracle, ComputedPipelineMatchesTickingReference)
{
    const std::uint64_t scenarios =
        std::max<std::uint64_t>(1, fuzz::iterations() / 20);
    const std::uint64_t base = fuzz::seed();
    std::uint64_t beats = 0;
    for (std::uint64_t i = 0; i < scenarios; ++i) {
        const std::uint64_t seed = base + i;
        Rng rng(seed);
        const Scenario sc = makeScenario(rng);
        const Observation ref =
            run<oracle::RefTracePlayer, oracle::RefCrossbar,
                oracle::RefCheckStage, oracle::RefMemoryController>(sc);
        const Observation prod =
            run<accel::TracePlayer, AxiInterconnect, protect::CheckStage,
                MemoryController>(sc);
        const std::string diff = compare(ref, prod);
        ASSERT_TRUE(diff.empty()) << "seed " << seed << ": " << diff;
        beats += ref.beats.size();
    }
    // The scenarios must actually move beats through the pipeline.
    EXPECT_GT(beats, scenarios);
}

} // namespace
} // namespace capcheck
