/**
 * @file
 * capprof: a low-overhead host-time self-profiler for the simulator.
 *
 * The obs stack attributes *simulated* time (ProbePoints, flights,
 * spans); this module attributes *host* wall-clock, so the "profile
 * the core, then optimize the hot site" loop has an instrument. Scopes
 * are declared with PROF_SCOPE(domain, name) and cost one thread-local
 * load plus a predictable branch when profiling is disabled — the
 * clock is only read while a ProfileSession is active on the current
 * thread.
 *
 * The clock is the time-stamp counter on x86-64 (one instruction; the
 * invariant TSC of constant_tsc/nonstop_tsc hosts) and steady_clock
 * nanoseconds on every other target, chosen at build time. Scopes
 * accumulate ticks; each session window converts its ticks to
 * nanoseconds once, when it closes, rounding every figure down, so
 * the self times of a window never sum past its wall time.
 *
 * Attribution model: every scope site is registered once per process
 * under a (domain, name) key. A RunProfile accumulates per-site
 * {selfNanos, totalNanos, calls, timedCalls} — self excludes enclosed
 * scopes, total is wall time of outermost activations only (recursion
 * safe) — plus a call-stack trie for Brendan Gregg folded-stacks
 * output; site self and total are derived from the trie when a window
 * closes. The clock is read only where host time changes domain: a
 * scope whose domain equals that of the innermost timed scope around
 * it is counted, not timed. Its calls stay exact, but it reads no
 * clock and opens no frame, so its host time stays with the enclosing
 * scope of the same domain and domain totals keep their meaning. Hot
 * boundaries that only need a frequency (the event queue's
 * sim/dispatch, the memory controller's accept) are declared with
 * PROF_COUNT and are always counted the same way.
 *
 * Sampling: a timed scope entered while no sampling activation is
 * open is a sampling root. Each root trie node times its first
 * sampleWarmup activations; after that it times one activation in
 * samplePeriod on average, at gaps drawn from a fixed-seed xorshift,
 * and the activations it times or skips are sampling activations.
 * A skipped activation is only counted, and so is every scope inside
 * it; inside a timed one, nested scopes are timed as above and are not
 * roots. When the window closes, each root node's skipped activations
 * are estimated at the mean of its timed ones, and that time moves
 * from the parent node's self (where the clock put it) into the
 * root's subtree, in proportion to the self time measured there.
 * Calls, wall time and the books are exact; the self and total of hot
 * sites (timedCalls < calls) are estimates.
 *
 * Profiles are strictly single-threaded accumulation buffers: one per
 * worker/run, merged at run end, so --jobs N never contends on shared
 * counters. The rendered JSON closes the books exactly: an "other"
 * domain is defined as wallNanos minus the sum of all site self
 * times, so domain self-times always sum to the session wall-clock.
 */

#ifndef CAPCHECK_OBS_PROF_HH
#define CAPCHECK_OBS_PROF_HH

#include <cstdint>
#include <string>
#include <vector>

#include <chrono>

namespace capcheck::prof
{

/** Index of a registered (domain, name) scope site; process-global. */
using SiteId = std::uint32_t;

constexpr SiteId invalidSite = 0xffffffffu;

/**
 * Register (or look up) the site for @p domain / @p name. Thread-safe
 * and idempotent: the same pair always returns the same id. Sites are
 * tiny and live for the process, so callers cache the id in a static.
 */
SiteId registerSite(const std::string &domain, const std::string &name);

struct SiteInfo {
    std::string domain;
    std::string name;
};

/** Snapshot of the global site table, indexed by SiteId. */
std::vector<SiteInfo> siteTable();

/** Always true: the profiler has no compile-out build. */
constexpr bool
compiledIn()
{
    return true;
}

namespace detail
{
inline std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The profiler's clock: the time-stamp counter on x86-64, steady_clock
 *  nanoseconds elsewhere. */
inline std::uint64_t
nowTicks()
{
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return steadyNanos();
#endif
}
} // namespace detail

/**
 * One run's (or one thread's) accumulation buffer. NOT thread-safe:
 * exactly one thread may feed it at a time (enforced by construction —
 * the ProfileSession installs it as that thread's current profile).
 * Merging buffers from several threads at run end is cheap and safe
 * once their sessions have closed.
 */
class RunProfile
{
  public:
    /** Activations a sampling root's trie node times before it
     *  samples. */
    static constexpr std::uint32_t sampleWarmup = 64;
    /** Mean activations per timed one once a root samples. */
    static constexpr std::uint32_t samplePeriod = 16;

    struct SiteTotals {
        SiteId site = invalidSite;
        std::string domain;
        std::string name;
        std::uint64_t selfNanos = 0;
        std::uint64_t totalNanos = 0;
        std::uint64_t calls = 0;
        /** Activations that read the clock; the rest were counted. */
        std::uint64_t timedCalls = 0;
    };

    struct DomainTotals {
        std::string domain;
        std::uint64_t selfNanos = 0;
        std::uint64_t totalNanos = 0;
        std::uint64_t calls = 0;
    };

    RunProfile() = default;

    /**
     * Scope entry; called by ScopeTimer only. Counts the call and
     * returns whether the scope must call exit(): true when it is
     * timed, or when it is a sampling root's skipped activation. A
     * scope in the domain of the innermost timed scope, or inside a
     * skipped activation, is only counted (see count()).
     */
    bool
    enter(SiteId site)
    {
        if (perSite.size() <= site)
            grow(site);
        PerSite &totals = perSite[site];
        ++totals.calls;
        if (skipping)
            return false;
        std::uint32_t parent = 0;
        bool sampling = false;
        if (!stack.empty()) {
            const Frame &top = stack.back();
            if (top.domain == totals.domain)
                return false;
            parent = top.node;
            sampling = top.sampling;
        }
        if (totals.lastParent != parent) {
            totals.lastNode = trieChild(parent, site);
            totals.lastParent = parent;
        }
        TrieNode &node = trie[totals.lastNode];
        if (!sampling) {
            // A sampling root: time the warm-up, then sample.
            if (node.warmup > 0) {
                --node.warmup;
            } else if (--node.countdown > 0) {
                ++node.skipped;
                skipping = true;
                return true;
            } else {
                node.countdown = nextGap();
                sampling = true;
            }
        }
        ++node.timed;
        stack.push_back(Frame{totals.domain, totals.lastNode, sampling,
                              0, detail::nowTicks()});
        return true;
    }

    /** Exit of a scope whose enter() returned true; called by
     *  ScopeTimer only. */
    void
    exit()
    {
        if (skipping) {
            skipping = false;
            return;
        }
        const std::uint64_t now = detail::nowTicks();
        const Frame frame = stack.back();
        stack.pop_back();
        const std::uint64_t elapsed =
            now >= frame.startTicks ? now - frame.startTicks : 0;
        trie[frame.node].selfTicks +=
            elapsed >= frame.childTicks ? elapsed - frame.childTicks : 0;
        if (!stack.empty())
            stack.back().childTicks += elapsed;
    }

    /** Add one call to @p site without timing it: no clock read, no
     *  stack frame, no trie node. Its self and total stay 0. */
    void
    count(SiteId site)
    {
        if (perSite.size() <= site)
            grow(site);
        ++perSite[site].calls;
    }

    /** Host nanoseconds spent inside ProfileSession windows. */
    std::uint64_t wallNanos() const { return wall; }

    /** Nodes of the call-stack trie, the root sentinel included. */
    std::size_t trieNodes() const { return trie.size(); }

    /**
     * Close a session window of @p window_ticks (ProfileSession dtor):
     * estimate the sampling roots' skipped activations, add the window
     * to the wall time and convert every tick accumulated since the
     * last window into nanoseconds.
     */
    void closeWindow(std::uint64_t window_ticks);

    /** Fold @p other's sites, stacks and wall time into this buffer. */
    void merge(const RunProfile &other);

    /** Per-site totals, sorted by (domain, name); zero-call sites are
     *  dropped so the report shape is independent of registration
     *  order elsewhere in the process. */
    std::vector<SiteTotals> siteTotals() const;

    /**
     * Per-domain totals, sorted by domain name, with a synthetic
     * "other" domain appended last holding wallNanos minus the summed
     * site self times — so self times sum to wallNanos exactly.
     */
    std::vector<DomainTotals> domainTotals() const;

    /**
     * Deterministic-shape profile document (fixed key order, sorted
     * domains/sites): {schema, label, wallNanos, domains:[
     * {domain, selfNanos, totalNanos, calls, share}...], sites:[
     * {domain, name, selfNanos, totalNanos, calls, timedCalls}...]}.
     * share is selfNanos/wallNanos.
     */
    std::string json(const std::string &label) const;

    /**
     * Brendan Gregg folded stacks ("d.a;d.b selfNanos" lines, sorted),
     * with a trailing "other" line for unattributed session time —
     * ready for flamegraph.pl / speedscope.
     */
    std::string foldedText() const;

  private:
    struct PerSite {
        std::uint64_t selfNanos = 0;
        std::uint64_t totalNanos = 0;
        std::uint64_t calls = 0;
        std::uint64_t timedCalls = 0;
        /** The site's domain, resolved once by grow(). */
        std::uint32_t domain = 0;
        /** The trie child last entered under lastParent: a scope
         *  usually re-enters under the same parent node. */
        std::uint32_t lastParent = invalidSite;
        std::uint32_t lastNode = 0;
    };

    struct Frame {
        std::uint32_t domain = 0;
        std::uint32_t node = 0;
        /** A sampling activation is this one or one around it. */
        bool sampling = false;
        std::uint64_t childTicks = 0;
        std::uint64_t startTicks = 0;
    };

    /** Call-stack trie node; node 0 is the root sentinel. A child's
     *  index is always above its parent's. */
    struct TrieNode {
        std::uint32_t parent = 0;
        SiteId site = invalidSite;
        /** No ancestor has the same site: the node's inclusive time
         *  counts toward the site's total. */
        bool outermost = true;
        /** As a sampling root: warm-up activations left, and
         *  activations until the next timed one. */
        std::uint32_t warmup = sampleWarmup;
        std::uint32_t countdown = 1;
        std::uint64_t selfNanos = 0;
        /** @{ Open window, not yet converted. */
        std::uint64_t selfTicks = 0;
        std::uint64_t timed = 0;
        std::uint64_t skipped = 0;
        /** @} */
        std::vector<std::uint32_t> children;
    };

    /** Extend perSite up to @p site, resolving each new site's
     *  domain. */
    void grow(SiteId site);
    std::uint32_t trieChild(std::uint32_t parent, SiteId site);
    void ensureRoot();
    /** Activations until a sampling root's next timed one: 1 to
     *  2 * samplePeriod - 1, from a fixed-seed xorshift. */
    std::uint32_t nextGap();
    /** Move each sampling root's estimated skipped time from its
     *  parent node's self into its subtree, in tick space. */
    void estimateSkipped(std::uint64_t window_ticks);

    std::vector<PerSite> perSite;
    std::vector<Frame> stack;
    std::vector<TrieNode> trie;
    std::uint64_t wall = 0;
    /** A skipped activation is open: every scope is only counted. */
    bool skipping = false;
    std::uint32_t gapState = 0x9e3779b9u;
};

namespace detail
{
// Defined inline and constant-initialised so every access is a plain
// TLS load: an extern thread_local goes through a TLS wrapper function
// that GCC's UBSan reports as a null load in every profiled run.
constinit inline thread_local RunProfile *tlsProfile = nullptr;
} // namespace detail

/** The profile receiving this thread's scopes, or nullptr. */
inline RunProfile *current() { return detail::tlsProfile; }

/** Install @p profile as this thread's sink; returns the previous. */
inline RunProfile *
installCurrent(RunProfile *profile)
{
    RunProfile *prev = detail::tlsProfile;
    detail::tlsProfile = profile;
    return prev;
}

/**
 * RAII scope: attributes the enclosed host time to @p site on the
 * current thread's profile, or only counts the call when the
 * innermost timed scope is in the same domain or a sampling root
 * skips the activation. Free when no profile is installed.
 */
class ScopeTimer
{
  public:
    explicit ScopeTimer(SiteId site) : prof(current())
    {
        if (prof && !prof->enter(site))
            prof = nullptr;
    }

    ~ScopeTimer()
    {
        if (prof)
            prof->exit();
    }

    ScopeTimer(const ScopeTimer &) = delete;
    ScopeTimer &operator=(const ScopeTimer &) = delete;

  private:
    RunProfile *prof;
};

/**
 * RAII window: installs @p profile as the current thread's sink and
 * accumulates the window's duration into its wallNanos. Nestable
 * (restores the previous sink) and re-openable: a run's profile may
 * collect several windows (execute, render, cache publish).
 */
class ProfileSession
{
  public:
    explicit ProfileSession(RunProfile &profile);
    ~ProfileSession();

    ProfileSession(const ProfileSession &) = delete;
    ProfileSession &operator=(const ProfileSession &) = delete;

  private:
    RunProfile &prof;
    RunProfile *prev;
    std::uint64_t startTicks;
};

} // namespace capcheck::prof

/**
 * Declare a profiling scope covering the rest of the enclosing block.
 * The site is registered once (thread-safe magic static); the timer
 * is a TLS load + branch when no session is active.
 */
#define CAPCHECK_CONCAT2(a, b) a##b
#define CAPCHECK_CONCAT(a, b) CAPCHECK_CONCAT2(a, b)
#define PROF_SCOPE(domain, name)                                        \
    static const ::capcheck::prof::SiteId CAPCHECK_CONCAT(              \
        profScopeSite_, __LINE__) =                                     \
        ::capcheck::prof::registerSite(domain, name);                   \
    const ::capcheck::prof::ScopeTimer CAPCHECK_CONCAT(                 \
        profScope_, __LINE__)(CAPCHECK_CONCAT(profScopeSite_, __LINE__))

/**
 * Count one call on the (domain, name) site without timing it, for a
 * boundary whose body costs less than two clock reads. A TLS load +
 * branch when no session is active; the site is registered on the
 * first profiled call.
 */
#define PROF_COUNT(domain, name)                                        \
    do {                                                                \
        if (::capcheck::prof::RunProfile *const profCounter_ =          \
                ::capcheck::prof::current()) {                          \
            static const ::capcheck::prof::SiteId profCountSite_ =      \
                ::capcheck::prof::registerSite(domain, name);           \
            profCounter_->count(profCountSite_);                        \
        }                                                               \
    } while (false)

#endif // CAPCHECK_OBS_PROF_HH
