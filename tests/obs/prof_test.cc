/**
 * @file
 * Unit tests for the host-time self-profiler (obs/prof): site
 * registration idempotence, scope attribution (self vs total,
 * nesting, recursion), same-domain scopes counted rather than timed,
 * the exact-books "other" domain, merge semantics for per-thread
 * buffers, JSON/folded output shape, the disabled fast path, counted
 * (untimed) event dispatches and memory accepts, and sampled hot
 * roots: exact calls, closed books and estimated splits.
 */

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "accel/trace_player.hh"
#include "base/json_value.hh"
#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"
#include "obs/prof.hh"
#include "protect/check_stage.hh"
#include "protect/no_protection.hh"
#include "sim/clocked.hh"

using namespace capcheck;
using prof::ProfileSession;
using prof::RunProfile;
using prof::ScopeTimer;

namespace
{

/** Busy-wait so a scope accumulates a nonzero steady_clock delta. */
void
spin()
{
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::microseconds(200)) {
    }
}

/** Busy-wait for @p ticks of the profiler's clock. */
void
spinTicks(std::uint64_t ticks)
{
    const std::uint64_t t0 = prof::detail::nowTicks();
    while (prof::detail::nowTicks() - t0 < ticks) {
    }
}

/** Activations of a hot root: well past the warm-up, so most are
 *  sampled out. */
constexpr int hotCalls = 1000;

/**
 * The quickest of @p attempts profiles of @p body. An interrupt in a
 * timed activation counts for every skipped one, so a test of sampled
 * estimates reads the least disturbed run, as a benchmark takes the
 * best of several.
 */
template <typename Body>
std::unique_ptr<RunProfile>
quietestProfile(int attempts, Body body)
{
    std::unique_ptr<RunProfile> best;
    for (int k = 0; k < attempts; ++k) {
        auto profile = std::make_unique<RunProfile>();
        {
            const ProfileSession session(*profile);
            body();
        }
        if (!best || profile->wallNanos() < best->wallNanos())
            best = std::move(profile);
    }
    return best;
}

std::uint64_t
selfSum(const RunProfile &profile)
{
    std::uint64_t sum = 0;
    for (const auto &dom : profile.domainTotals())
        sum += dom.selfNanos;
    return sum;
}

std::uint64_t
foldedSum(const RunProfile &profile)
{
    std::uint64_t sum = 0;
    std::istringstream lines(profile.foldedText());
    for (std::string line; std::getline(lines, line);)
        sum += std::stoull(line.substr(line.rfind(' ') + 1));
    return sum;
}

const RunProfile::SiteTotals *
findSite(const std::vector<RunProfile::SiteTotals> &rows,
         const std::string &domain, const std::string &name)
{
    for (const auto &row : rows) {
        if (row.domain == domain && row.name == name)
            return &row;
    }
    return nullptr;
}

/** Ticks a fixed number of times, each tick inside a timed scope. */
class ScopedTicker : public TickingObject
{
  public:
    ScopedTicker(EventQueue &eq, stats::StatGroup *stats, int count)
        : TickingObject(eq, "ticker", stats), remaining(count)
    {
    }

    bool
    tick() override
    {
        PROF_SCOPE("t.count", "tick");
        spin();
        ++ticks;
        return --remaining > 0;
    }

    int remaining;
    std::uint64_t ticks = 0;
};

} // namespace

TEST(Prof, RegisterSiteIsIdempotent)
{
    const prof::SiteId a = prof::registerSite("t.reg", "alpha");
    const prof::SiteId b = prof::registerSite("t.reg", "alpha");
    const prof::SiteId c = prof::registerSite("t.reg", "beta");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);

    const auto table = prof::siteTable();
    ASSERT_GT(table.size(), a);
    EXPECT_EQ(table[a].domain, "t.reg");
    EXPECT_EQ(table[a].name, "alpha");
}

TEST(Prof, NoScopesRecordWithoutASession)
{
    // current() is null outside a session, so ScopeTimer is inert.
    ASSERT_EQ(prof::current(), nullptr);
    const prof::SiteId site = prof::registerSite("t.idle", "scope");
    {
        const ScopeTimer timer(site);
        spin();
    }
    RunProfile profile;
    EXPECT_EQ(profile.wallNanos(), 0u);
    EXPECT_TRUE(profile.siteTotals().empty());
}

TEST(Prof, SessionAttributesScopesAndWall)
{
    const prof::SiteId site = prof::registerSite("t.one", "work");

    RunProfile profile;
    {
        const ProfileSession session(profile);
        EXPECT_EQ(prof::current(), &profile);
        const ScopeTimer timer(site);
        spin();
    }
    EXPECT_EQ(prof::current(), nullptr);

    const auto sites = profile.siteTotals();
    const auto *row = findSite(sites, "t.one", "work");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, 1u);
    EXPECT_GT(row->selfNanos, 0u);
    EXPECT_EQ(row->selfNanos, row->totalNanos);
    // The scope ran inside the session window.
    EXPECT_GE(profile.wallNanos(), row->selfNanos);
}

TEST(Prof, NestedScopesSplitSelfFromTotal)
{
    // Two domains: a same-domain inner scope would only be counted.
    const prof::SiteId outer = prof::registerSite("t.nest", "outer");
    const prof::SiteId inner = prof::registerSite("t.nest.in", "inner");

    RunProfile profile;
    {
        const ProfileSession session(profile);
        const ScopeTimer a(outer);
        spin();
        {
            const ScopeTimer b(inner);
            spin();
        }
    }

    const auto sites = profile.siteTotals();
    const auto *o = findSite(sites, "t.nest", "outer");
    const auto *i = findSite(sites, "t.nest.in", "inner");
    ASSERT_NE(o, nullptr);
    ASSERT_NE(i, nullptr);
    // Outer's total covers the inner scope; its self does not.
    EXPECT_GE(o->totalNanos, o->selfNanos + i->selfNanos);
    EXPECT_EQ(i->selfNanos, i->totalNanos);
}

TEST(Prof, SameDomainNestedScopeIsCountedNotTimed)
{
    const prof::SiteId outer = prof::registerSite("t.same", "outer");
    const prof::SiteId inner = prof::registerSite("t.same", "inner");

    RunProfile profile;
    {
        const ProfileSession session(profile);
        const ScopeTimer a(outer);
        spin();
        for (int k = 0; k < 3; ++k) {
            const ScopeTimer b(inner);
            spin();
        }
    }

    const auto sites = profile.siteTotals();
    const auto *o = findSite(sites, "t.same", "outer");
    const auto *i = findSite(sites, "t.same", "inner");
    ASSERT_NE(o, nullptr);
    ASSERT_NE(i, nullptr);
    // The inner scope's calls are exact, but it reads no clock...
    EXPECT_EQ(i->calls, 3u);
    EXPECT_EQ(i->selfNanos, 0u);
    EXPECT_EQ(i->totalNanos, 0u);
    // ...so its host time stays in the outer scope's self, which
    // covers all four spins.
    EXPECT_EQ(o->calls, 1u);
    EXPECT_EQ(o->selfNanos, o->totalNanos);
    EXPECT_GE(o->selfNanos, 4 * 200'000u * 9 / 10);

    // No frame: the folded stacks hold the outer scope alone.
    const std::string folded = profile.foldedText();
    EXPECT_EQ(folded.find("t.same.inner"), std::string::npos);
    EXPECT_NE(folded.find("t.same.outer "), std::string::npos);
}

TEST(Prof, OtherDomainUnderACountedScopeSplitsFromTheTimedAncestor)
{
    const prof::SiteId top = prof::registerSite("t.gp", "top");
    const prof::SiteId mid = prof::registerSite("t.gp", "mid");
    const prof::SiteId leaf = prof::registerSite("t.gc", "leaf");

    RunProfile profile;
    {
        const ProfileSession session(profile);
        const ScopeTimer a(top);
        spin();
        const ScopeTimer b(mid); // counted: same domain as top
        spin();
        const ScopeTimer c(leaf); // timed: the domain changes
        spin();
    }

    const auto sites = profile.siteTotals();
    const auto *t = findSite(sites, "t.gp", "top");
    const auto *m = findSite(sites, "t.gp", "mid");
    const auto *l = findSite(sites, "t.gc", "leaf");
    ASSERT_NE(t, nullptr);
    ASSERT_NE(m, nullptr);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(m->calls, 1u);
    EXPECT_EQ(m->totalNanos, 0u);
    EXPECT_EQ(l->calls, 1u);
    EXPECT_GT(l->selfNanos, 0u);
    // The leaf's time comes off the nearest timed ancestor's self.
    EXPECT_GE(t->totalNanos, t->selfNanos + l->totalNanos);
    EXPECT_GE(t->selfNanos, 2 * 200'000u * 9 / 10);

    // The leaf's frame sits directly under the timed ancestor.
    const std::string folded = profile.foldedText();
    EXPECT_NE(folded.find("t.gp.top;t.gc.leaf "), std::string::npos);
    EXPECT_EQ(folded.find("t.gp.mid"), std::string::npos);

    std::uint64_t selfSum = 0;
    for (const auto &dom : profile.domainTotals())
        selfSum += dom.selfNanos;
    EXPECT_EQ(selfSum, profile.wallNanos());
}

TEST(Prof, CountedScopesCloseTheBooksAndMerge)
{
    const prof::SiteId outer = prof::registerSite("t.cmerge", "outer");
    const prof::SiteId inner = prof::registerSite("t.cmerge", "inner");

    RunProfile a;
    RunProfile b;
    const auto fill = [&](RunProfile &profile, int inners) {
        const ProfileSession session(profile);
        const ScopeTimer timer(outer);
        for (int k = 0; k < inners; ++k) {
            const ScopeTimer counted(inner);
            spin();
        }
    };
    fill(a, 2);
    fill(b, 3);

    RunProfile merged;
    merged.merge(a);
    merged.merge(b);
    for (const RunProfile *profile : {&a, &b, &merged}) {
        std::uint64_t selfSum = 0;
        for (const auto &dom : profile->domainTotals())
            selfSum += dom.selfNanos;
        EXPECT_EQ(selfSum, profile->wallNanos());
    }
    const auto sites = merged.siteTotals();
    const auto *o = findSite(sites, "t.cmerge", "outer");
    const auto *i = findSite(sites, "t.cmerge", "inner");
    ASSERT_NE(o, nullptr);
    ASSERT_NE(i, nullptr);
    EXPECT_EQ(o->calls, 2u);
    EXPECT_EQ(i->calls, 5u);
    EXPECT_EQ(i->selfNanos, 0u);
}

TEST(Prof, ProfCountRecordsNothingWithoutASession)
{
    ASSERT_EQ(prof::current(), nullptr);
    PROF_COUNT("t.pcount", "idle");
    RunProfile idle;
    EXPECT_TRUE(idle.siteTotals().empty());

    RunProfile profile;
    {
        const ProfileSession session(profile);
        for (int k = 0; k < 4; ++k)
            PROF_COUNT("t.pcount", "hit");
    }
    const auto sites = profile.siteTotals();
    EXPECT_EQ(findSite(sites, "t.pcount", "idle"), nullptr);
    const auto *row = findSite(sites, "t.pcount", "hit");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, 4u);
    EXPECT_EQ(row->selfNanos, 0u);
    EXPECT_EQ(row->totalNanos, 0u);
}

TEST(Prof, MemoryAcceptsAreCountedOncePerServedBeat)
{
    // A player's DMA beats through crossbar, check stage and memory
    // controller, profiled.
    EventQueue eq;
    stats::StatGroup root("t");
    MemoryController memctrl(eq, &root, 10);
    protect::NoProtection none;
    protect::CheckStage stage(eq, &root, none);
    AxiInterconnect xbar(eq, &root, 1);
    xbar.memSide().bind(stage.cpuSide());
    stage.memSide().bind(memctrl.cpuSide());

    workloads::KernelSpec spec;
    spec.name = "t";
    spec.buffers = {{"ext", 64, workloads::BufferAccess::readWrite,
                     workloads::BufferPlacement::external}};
    spec.timing.ilp = 4;
    spec.timing.maxOutstanding = 4;
    accel::InstanceTrace trace;
    for (unsigned k = 0; k < 8; ++k)
        trace.access(k % 2 ? MemCmd::write : MemCmd::read, 0, 8 * k, 8);
    trace.barrier();
    accel::TracePlayer player(
        eq, &root, "p0", spec,
        std::make_shared<const accel::InstanceTrace>(std::move(trace)),
        {{0x1000, 64, {}}}, 0, 0, accel::AddressingMode{});
    player.memSide().bind(xbar.accelSide(0));

    RunProfile profile;
    {
        const ProfileSession session(profile);
        player.start(0);
        eq.run();
    }
    ASSERT_TRUE(player.done());
    ASSERT_EQ(memctrl.requestsServed(), 8u);

    const auto sites = profile.siteTotals();
    const auto *accept = findSite(sites, "mem", "memctrl.accept");
    ASSERT_NE(accept, nullptr);
    EXPECT_EQ(accept->calls, memctrl.requestsServed());
    EXPECT_EQ(accept->selfNanos, 0u);
    EXPECT_EQ(profile.foldedText().find("mem.memctrl.accept"),
              std::string::npos);
}

TEST(Prof, RecursionCountsTotalOnceButEveryCall)
{
    // The recursion passes through another domain, so every
    // activation is timed (a direct same-domain one is only counted).
    const prof::SiteId site = prof::registerSite("t.rec", "fib");
    const prof::SiteId hop = prof::registerSite("t.rec.hop", "call");

    RunProfile profile;
    {
        const ProfileSession session(profile);
        const ScopeTimer a(site);
        spin();
        {
            const ScopeTimer ab(hop);
            const ScopeTimer b(site);
            spin();
            {
                const ScopeTimer bc(hop);
                const ScopeTimer c(site);
                spin();
            }
        }
    }

    const auto sites = profile.siteTotals();
    const auto *row = findSite(sites, "t.rec", "fib");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, 3u);
    // All three activations contribute self time, but total is the
    // outermost activation only — no double counting, so total can
    // never exceed the session wall.
    EXPECT_GE(row->selfNanos, row->totalNanos * 9 / 10);
    EXPECT_LE(row->totalNanos, profile.wallNanos());
}

TEST(Prof, OtherDomainClosesTheBooks)
{
    const prof::SiteId site = prof::registerSite("t.books", "covered");

    RunProfile profile;
    {
        const ProfileSession session(profile);
        {
            const ScopeTimer timer(site);
            spin();
        }
        spin(); // unattributed session time -> "other"
    }

    const auto domains = profile.domainTotals();
    ASSERT_FALSE(domains.empty());
    EXPECT_EQ(domains.back().domain, "other");
    std::uint64_t selfSum = 0;
    for (const auto &dom : domains)
        selfSum += dom.selfNanos;
    EXPECT_EQ(selfSum, profile.wallNanos());
    EXPECT_GT(domains.back().selfNanos, 0u);
}

TEST(Prof, MergeFoldsSitesStacksAndWall)
{
    const prof::SiteId site = prof::registerSite("t.merge", "work");

    // Two per-thread buffers, merged at "run end" like SweepRunner
    // merges --jobs N workers.
    RunProfile a;
    RunProfile b;
    const auto fill = [&](RunProfile &profile) {
        const ProfileSession session(profile);
        const ScopeTimer timer(site);
        spin();
    };
    fill(a);
    std::thread worker(fill, std::ref(b));
    worker.join();

    RunProfile merged;
    merged.merge(a);
    merged.merge(b);

    const auto mergedSites = merged.siteTotals();
    const auto *row = findSite(mergedSites, "t.merge", "work");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, 2u);
    const auto aSites = a.siteTotals();
    const auto bSites = b.siteTotals();
    const auto *ra = findSite(aSites, "t.merge", "work");
    const auto *rb = findSite(bSites, "t.merge", "work");
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(row->selfNanos, ra->selfNanos + rb->selfNanos);
    EXPECT_EQ(merged.wallNanos(), a.wallNanos() + b.wallNanos());

    // Folded stacks merged too: one line per distinct stack plus the
    // trailing "other".
    const std::string folded = merged.foldedText();
    EXPECT_NE(folded.find("t.merge.work "), std::string::npos);
    EXPECT_NE(folded.find("other "), std::string::npos);
}

TEST(Prof, JsonHasTheDocumentedShape)
{
    const prof::SiteId site = prof::registerSite("t.json", "work");

    RunProfile profile;
    {
        const ProfileSession session(profile);
        const ScopeTimer timer(site);
        spin();
    }

    const std::string text = profile.json("kmp tasks=4");
    std::string err;
    const auto doc = json::parseJson(text, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    ASSERT_TRUE(doc->isObject());
    EXPECT_EQ(doc->get("schema")->asString(), "capcheck.prof.v1");
    EXPECT_EQ(doc->get("label")->asString(), "kmp tasks=4");
    EXPECT_GT(doc->get("wallNanos")->asNumber(), 0.0);

    const json::JsonValue *domains = doc->get("domains");
    ASSERT_TRUE(domains && domains->isArray());
    double selfSum = 0;
    double shareSum = 0;
    for (const json::JsonValue &dom : domains->elements()) {
        selfSum += dom.get("selfNanos")->asNumber();
        shareSum += dom.get("share")->asNumber();
    }
    // Domain self times sum to the wall time exactly; shares to 1
    // within floating-point rounding.
    EXPECT_EQ(selfSum, doc->get("wallNanos")->asNumber());
    EXPECT_NEAR(shareSum, 1.0, 1e-9);

    const json::JsonValue *sites = doc->get("sites");
    ASSERT_TRUE(sites && sites->isArray());
    bool found = false;
    for (const json::JsonValue &s : sites->elements()) {
        if (s.get("domain")->asString() == "t.json" &&
            s.get("name")->asString() == "work")
            found = true;
    }
    EXPECT_TRUE(found);

    // Deterministic shape: rendering twice yields identical bytes.
    EXPECT_EQ(text, profile.json("kmp tasks=4"));
}

TEST(Prof, ProfScopeMacroCompilesInAnyBlock)
{
    RunProfile profile;
    {
        const ProfileSession session(profile);
        PROF_SCOPE("t.macro", "block");
        spin();
    }
    const auto sites = profile.siteTotals();
    const auto *row = findSite(sites, "t.macro", "block");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, 1u);
}

TEST(Prof, DispatchesAreCountedNotTimed)
{
    EventQueue eq;
    stats::StatGroup root("soc");
    ScopedTicker ticker(eq, &root, 5);
    std::uint64_t plainRuns = 0;
    LambdaEvent plain([&] { ++plainRuns; });
    ticker.activate(1);
    eq.schedule(&plain, 3);

    RunProfile profile;
    {
        const ProfileSession session(profile);
        eq.run();
    }
    ASSERT_EQ(ticker.ticks, 5u);
    ASSERT_EQ(plainRuns, 1u);

    const auto sites = profile.siteTotals();
    // One call per serviced event, and no time: the dispatch is
    // counted, never timed.
    const auto *dispatch = findSite(sites, "sim", "dispatch");
    ASSERT_NE(dispatch, nullptr);
    EXPECT_EQ(dispatch->calls, ticker.ticks + plainRuns);
    EXPECT_EQ(dispatch->selfNanos, 0u);
    EXPECT_EQ(dispatch->totalNanos, 0u);
    // The component scope still times its own work, and the loop
    // keeps the rest.
    const auto *tick = findSite(sites, "t.count", "tick");
    ASSERT_NE(tick, nullptr);
    EXPECT_EQ(tick->calls, ticker.ticks);
    const auto *run = findSite(sites, "sim", "eventq.run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->calls, 1u);

    // No stack frame: the folded stacks nest the tick directly under
    // the loop.
    const std::string folded = profile.foldedText();
    EXPECT_EQ(folded.find("sim.dispatch"), std::string::npos);
    EXPECT_NE(folded.find("sim.eventq.run;t.count.tick "),
              std::string::npos);

    std::uint64_t selfSum = 0;
    for (const auto &dom : profile.domainTotals())
        selfSum += dom.selfNanos;
    EXPECT_EQ(selfSum, profile.wallNanos());
}

TEST(Prof, HotRootCountsEveryCallAndSamplesTheSameWay)
{
    const prof::SiteId root = prof::registerSite("t.hot", "root");
    const prof::SiteId inner = prof::registerSite("t.hot.in", "inner");

    const auto fill = [&](RunProfile &profile) {
        const ProfileSession session(profile);
        for (int k = 0; k < hotCalls; ++k) {
            const ScopeTimer a(root);
            const ScopeTimer b(inner);
        }
    };
    RunProfile first;
    RunProfile second;
    fill(first);
    fill(second);

    const auto rows = first.siteTotals();
    const auto *r = findSite(rows, "t.hot", "root");
    const auto *i = findSite(rows, "t.hot.in", "inner");
    ASSERT_NE(r, nullptr);
    ASSERT_NE(i, nullptr);
    EXPECT_EQ(r->calls, std::uint64_t{hotCalls});
    EXPECT_EQ(i->calls, std::uint64_t{hotCalls});
    // The warm-up is timed, then about one activation in
    // samplePeriod; the inner scope is timed exactly when its root is.
    const std::uint64_t sampled = hotCalls - RunProfile::sampleWarmup;
    EXPECT_GE(r->timedCalls,
              RunProfile::sampleWarmup +
                  sampled / (2 * RunProfile::samplePeriod));
    EXPECT_LE(r->timedCalls, RunProfile::sampleWarmup +
                                 sampled / (RunProfile::samplePeriod / 2));
    EXPECT_EQ(i->timedCalls, r->timedCalls);

    // A fixed-seed countdown: the same calls sample the same way.
    const auto again = second.siteTotals();
    const auto *r2 = findSite(again, "t.hot", "root");
    ASSERT_NE(r2, nullptr);
    EXPECT_EQ(r2->calls, r->calls);
    EXPECT_EQ(r2->timedCalls, r->timedCalls);
}

TEST(Prof, SampledRootClosesTheBooksAtTheTopLevel)
{
    const prof::SiteId root = prof::registerSite("t.top", "root");
    const prof::SiteId leaf = prof::registerSite("t.top.in", "leaf");

    const auto held = quietestProfile(3, [&] {
        for (int k = 0; k < 4 * hotCalls; ++k) {
            const ScopeTimer a(root);
            spinTicks(1000);
            const ScopeTimer b(leaf);
            spinTicks(1000);
        }
    });
    const RunProfile &profile = *held;
    EXPECT_EQ(selfSum(profile), profile.wallNanos());
    EXPECT_EQ(foldedSum(profile), profile.wallNanos());

    // The skipped activations' time left "other" for the root's
    // subtree: only the loop between activations stays unattributed.
    const auto domains = profile.domainTotals();
    ASSERT_EQ(domains.back().domain, "other");
    EXPECT_LT(domains.back().selfNanos, profile.wallNanos() / 3);

    // Site figures agree with the trie: the root's total is its
    // subtree, its self and the leaf's add up to it.
    const auto rows = profile.siteTotals();
    const auto *r = findSite(rows, "t.top", "root");
    const auto *l = findSite(rows, "t.top.in", "leaf");
    ASSERT_NE(r, nullptr);
    ASSERT_NE(l, nullptr);
    EXPECT_LE(r->totalNanos - r->selfNanos - l->totalNanos, 1u);
    EXPECT_EQ(l->selfNanos, l->totalNanos);
    EXPECT_LE(r->totalNanos, profile.wallNanos());
}

TEST(Prof, SampledRootClosesTheBooksUnderATimedParent)
{
    const prof::SiteId parent = prof::registerSite("t.under", "parent");
    const prof::SiteId root = prof::registerSite("t.under.in", "root");
    const prof::SiteId leaf = prof::registerSite("t.under.leaf", "leaf");

    const auto held = quietestProfile(3, [&] {
        const ScopeTimer p(parent);
        for (int k = 0; k < 4 * hotCalls; ++k) {
            const ScopeTimer a(root);
            spinTicks(1000);
            const ScopeTimer b(leaf);
            spinTicks(1000);
        }
    });
    const RunProfile &profile = *held;
    EXPECT_EQ(selfSum(profile), profile.wallNanos());
    EXPECT_EQ(foldedSum(profile), profile.wallNanos());

    const auto rows = profile.siteTotals();
    const auto *p = findSite(rows, "t.under", "parent");
    const auto *r = findSite(rows, "t.under.in", "root");
    const auto *l = findSite(rows, "t.under.leaf", "leaf");
    ASSERT_NE(p, nullptr);
    ASSERT_NE(r, nullptr);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(p->timedCalls, 1u);
    // The parent's total is measured; the skipped activations' time
    // moved out of its self into the root and the leaf.
    EXPECT_LT(p->selfNanos, p->totalNanos / 3);
    EXPECT_LE(p->totalNanos - p->selfNanos - r->totalNanos, 1u);
    EXPECT_LE(r->totalNanos - r->selfNanos - l->totalNanos, 1u);
    EXPECT_LE(p->totalNanos, profile.wallNanos());
}

TEST(Prof, SampledRootEstimatesTheSplitOfKnownSpins)
{
    const prof::SiteId root = prof::registerSite("t.split", "root");
    const prof::SiteId leaf = prof::registerSite("t.split.in", "leaf");

    // Long spins keep the leaf frame's own cost, which lands in the
    // root's self (more so in a sanitizer build), small beside them.
    const auto held = quietestProfile(5, [&] {
        for (int k = 0; k < hotCalls; ++k) {
            const ScopeTimer a(root);
            spinTicks(20000);
            const ScopeTimer b(leaf);
            spinTicks(60000);
        }
    });
    const RunProfile &profile = *held;
    const auto rows = profile.siteTotals();
    const auto *r = findSite(rows, "t.split", "root");
    const auto *l = findSite(rows, "t.split.in", "leaf");
    ASSERT_NE(r, nullptr);
    ASSERT_NE(l, nullptr);
    ASSERT_LT(l->timedCalls, l->calls);
    ASSERT_GT(l->selfNanos, 0u);
    const double ratio = static_cast<double>(r->selfNanos) /
                         static_cast<double>(l->selfNanos);
    EXPECT_NEAR(ratio, 20000.0 / 60000.0, 0.15 * 20000.0 / 60000.0);
    // And the estimate covers the calls it did not time: the leaf
    // holds about three quarters of the window.
    EXPECT_GT(l->selfNanos, profile.wallNanos() * 6 / 10);
}

TEST(Prof, ScopeInASkippedActivationOpensNoFrameOrNode)
{
    const prof::SiteId root = prof::registerSite("t.skip", "root");
    const prof::SiteId probe = prof::registerSite("t.skip.in", "probe");

    // Find a skipped activation: a window whose root call reads no
    // clock leaves the root's timed calls where they were.
    const auto timedCalls = [&](const RunProfile &profile) {
        const auto rows = profile.siteTotals();
        const auto *r = findSite(rows, "t.skip", "root");
        return r ? r->timedCalls : 0;
    };
    RunProfile scout;
    int skipped = -1;
    for (int k = 0; k < hotCalls && skipped < 0; ++k) {
        const std::uint64_t before = timedCalls(scout);
        {
            const ProfileSession session(scout);
            const ScopeTimer a(root);
        }
        if (timedCalls(scout) == before)
            skipped = k;
    }
    ASSERT_GE(skipped, static_cast<int>(RunProfile::sampleWarmup));

    // The same calls sample the same way; enter the probe only in the
    // skipped activation.
    RunProfile profile;
    std::size_t nodesBefore = 0;
    for (int k = 0; k <= skipped; ++k) {
        const ProfileSession session(profile);
        const ScopeTimer a(root);
        if (k == skipped) {
            nodesBefore = profile.trieNodes();
            const ScopeTimer b(probe);
            spin();
        }
    }
    EXPECT_EQ(profile.trieNodes(), nodesBefore);
    const auto rows = profile.siteTotals();
    const auto *p = findSite(rows, "t.skip.in", "probe");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->calls, 1u);
    EXPECT_EQ(p->timedCalls, 0u);
    EXPECT_EQ(p->selfNanos, 0u);
    EXPECT_EQ(profile.foldedText().find("t.skip.in"), std::string::npos);
    EXPECT_EQ(selfSum(profile), profile.wallNanos());
}
