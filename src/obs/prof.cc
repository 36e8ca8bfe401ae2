#include "obs/prof.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "base/json.hh"

namespace capcheck::prof
{

namespace
{

using detail::nowTicks;

#if defined(__x86_64__)

using detail::steadyNanos;

/** Both clocks read together at process start: the calibration's
 *  origin. */
const std::pair<std::uint64_t, std::uint64_t> clockOrigin{nowTicks(),
                                                          steadyNanos()};

/** Nanoseconds per TSC tick, measured against steady_clock over the
 *  process's life so far. */
double
nanosPerTick()
{
    const std::uint64_t ticks = nowTicks() - clockOrigin.first;
    const std::uint64_t nanos = steadyNanos() - clockOrigin.second;
    return ticks > 0 ? static_cast<double>(nanos) /
                           static_cast<double>(ticks)
                     : 0.0;
}

#else

double
nanosPerTick()
{
    return 1.0;
}

#endif

/** Process-global site registry; append-only, mutex-guarded. */
struct SiteRegistry {
    std::mutex mutex;
    std::vector<SiteInfo> sites;
    std::unordered_map<std::string, SiteId> byKey;
    /** Each site's domain as a small id: equal ids, equal domains. */
    std::vector<std::uint32_t> siteDomain;
    std::unordered_map<std::string, std::uint32_t> domainIds;
};

SiteRegistry &
registry()
{
    static SiteRegistry reg;
    return reg;
}

} // namespace

SiteId
registerSite(const std::string &domain, const std::string &name)
{
    SiteRegistry &reg = registry();
    const std::string key = domain + "\x1f" + name;
    std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.byKey.find(key);
    if (it != reg.byKey.end())
        return it->second;
    const SiteId id = static_cast<SiteId>(reg.sites.size());
    reg.sites.push_back(SiteInfo{domain, name});
    reg.byKey.emplace(key, id);
    const auto domainId = static_cast<std::uint32_t>(reg.domainIds.size());
    reg.siteDomain.push_back(
        reg.domainIds.emplace(domain, domainId).first->second);
    return id;
}

std::vector<SiteInfo>
siteTable()
{
    SiteRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.sites;
}

void
RunProfile::grow(SiteId site)
{
    const std::size_t first = perSite.size();
    perSite.resize(site + 1);
    SiteRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (std::size_t i = first; i <= site && i < reg.siteDomain.size(); ++i)
        perSite[i].domain = reg.siteDomain[i];
}

void
RunProfile::ensureRoot()
{
    if (trie.empty())
        trie.push_back(TrieNode{});
}

std::uint32_t
RunProfile::trieChild(std::uint32_t parent, SiteId site)
{
    ensureRoot();
    for (const std::uint32_t child : trie[parent].children) {
        if (trie[child].site == site)
            return child;
    }
    const auto node = static_cast<std::uint32_t>(trie.size());
    TrieNode fresh;
    fresh.parent = parent;
    fresh.site = site;
    for (std::uint32_t up = parent; up != 0; up = trie[up].parent)
        fresh.outermost = fresh.outermost && trie[up].site != site;
    trie.push_back(std::move(fresh));
    trie[parent].children.push_back(node);
    return node;
}

std::uint32_t
RunProfile::nextGap()
{
    gapState ^= gapState << 13;
    gapState ^= gapState >> 17;
    gapState ^= gapState << 5;
    return 1 + gapState % (2 * samplePeriod - 1);
}

void
RunProfile::estimateSkipped(std::uint64_t window_ticks)
{
    std::vector<std::uint64_t> subtree(trie.size(), 0);
    std::uint64_t attributed = 0;
    for (const TrieNode &node : trie)
        attributed += node.selfTicks;
    // Children sit above their parents, so a backward walk settles
    // every nested root before the root whose subtree holds it.
    for (std::size_t n = trie.size(); n-- > 1;) {
        TrieNode &root = trie[n];
        subtree[n] += root.selfTicks;
        if (root.skipped > 0 && root.timed > 0 && subtree[n] > 0) {
            // The parent's self (the sentinel's is the window's
            // unattributed rest) holds the skipped activations.
            const std::uint64_t held =
                root.parent != 0 ? trie[root.parent].selfTicks
                : window_ticks > attributed ? window_ticks - attributed
                                            : 0;
            const std::uint64_t moved = static_cast<std::uint64_t>(
                std::min<unsigned __int128>(
                    static_cast<unsigned __int128>(subtree[n]) *
                        root.skipped / root.timed,
                    held));
            // Share it by measured self; the rounding goes to the root.
            std::uint64_t given = 0;
            const auto give = [&](const auto &self, std::uint32_t at)
                -> void {
                for (const std::uint32_t child : trie[at].children) {
                    const auto share = static_cast<std::uint64_t>(
                        static_cast<unsigned __int128>(moved) *
                        trie[child].selfTicks / subtree[n]);
                    trie[child].selfTicks += share;
                    given += share;
                    self(self, child);
                }
            };
            give(give, static_cast<std::uint32_t>(n));
            root.selfTicks += moved - given;
            subtree[n] += moved;
            if (root.parent != 0)
                trie[root.parent].selfTicks -= moved;
            else
                attributed += moved;
        }
        subtree[root.parent] += subtree[n];
    }
}

void
RunProfile::closeWindow(std::uint64_t window_ticks)
{
    estimateSkipped(window_ticks);
    // Truncating each figure keeps any sum of converted self times at
    // or below the converted window: the books stay closed.
    const double scale = nanosPerTick();
    const auto nanos = [scale](std::uint64_t ticks) {
        return static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                          scale);
    };
    wall += nanos(window_ticks);
    // Site self and total follow from the trie: self is the sum over
    // the site's nodes, total the inclusive time of its outermost
    // ones.
    std::vector<std::uint64_t> inclusive(trie.size(), 0);
    for (std::size_t n = trie.size(); n-- > 1;) {
        inclusive[n] += trie[n].selfTicks;
        inclusive[trie[n].parent] += inclusive[n];
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> siteTicks(
        perSite.size());
    for (std::size_t n = 1; n < trie.size(); ++n) {
        TrieNode &node = trie[n];
        siteTicks[node.site].first += node.selfTicks;
        if (node.outermost)
            siteTicks[node.site].second += inclusive[n];
        perSite[node.site].timedCalls += node.timed;
        node.selfNanos += nanos(node.selfTicks);
        node.selfTicks = node.timed = node.skipped = 0;
    }
    for (std::size_t site = 0; site < perSite.size(); ++site) {
        perSite[site].selfNanos += nanos(siteTicks[site].first);
        perSite[site].totalNanos += nanos(siteTicks[site].second);
    }
}

void
RunProfile::merge(const RunProfile &other)
{
    wall += other.wall;
    for (SiteId site = 0; site < other.perSite.size(); ++site) {
        const PerSite &src = other.perSite[site];
        if (src.calls == 0)
            continue;
        if (perSite.size() <= site)
            grow(site);
        perSite[site].selfNanos += src.selfNanos;
        perSite[site].totalNanos += src.totalNanos;
        perSite[site].calls += src.calls;
        perSite[site].timedCalls += src.timedCalls;
    }
    // Replay the other trie path by path so folded stacks merge too.
    if (other.trie.empty())
        return;
    ensureRoot();
    // Recursive lambda over (theirNode, ourNode).
    const auto walk = [&](const auto &self, std::uint32_t theirs,
                          std::uint32_t ours) -> void {
        for (const std::uint32_t child : other.trie[theirs].children) {
            const std::uint32_t mine =
                trieChild(ours, other.trie[child].site);
            trie[mine].selfNanos += other.trie[child].selfNanos;
            self(self, child, mine);
        }
    };
    walk(walk, 0, 0);
}

std::vector<RunProfile::SiteTotals>
RunProfile::siteTotals() const
{
    const std::vector<SiteInfo> infos = siteTable();
    std::vector<SiteTotals> out;
    for (SiteId site = 0; site < perSite.size(); ++site) {
        const PerSite &totals = perSite[site];
        if (totals.calls == 0)
            continue;
        SiteTotals row;
        row.site = site;
        if (site < infos.size()) {
            row.domain = infos[site].domain;
            row.name = infos[site].name;
        }
        row.selfNanos = totals.selfNanos;
        row.totalNanos = totals.totalNanos;
        row.calls = totals.calls;
        row.timedCalls = totals.timedCalls;
        out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end(),
              [](const SiteTotals &a, const SiteTotals &b) {
                  if (a.domain != b.domain)
                      return a.domain < b.domain;
                  return a.name < b.name;
              });
    return out;
}

std::vector<RunProfile::DomainTotals>
RunProfile::domainTotals() const
{
    std::map<std::string, DomainTotals> byDomain;
    std::uint64_t selfSum = 0;
    for (const SiteTotals &row : siteTotals()) {
        DomainTotals &dom = byDomain[row.domain];
        dom.domain = row.domain;
        dom.selfNanos += row.selfNanos;
        dom.totalNanos += row.totalNanos;
        dom.calls += row.calls;
        selfSum += row.selfNanos;
    }
    std::vector<DomainTotals> out;
    for (auto &entry : byDomain)
        out.push_back(std::move(entry.second));
    // Close the books: "other" is the session time not inside any
    // scope, so domain self times sum to wallNanos exactly.
    DomainTotals other;
    other.domain = "other";
    other.selfNanos = wall >= selfSum ? wall - selfSum : 0;
    other.totalNanos = other.selfNanos;
    out.push_back(std::move(other));
    return out;
}

std::string
RunProfile::json(const std::string &label) const
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("capcheck.prof.v1");
    w.key("label").value(label);
    w.key("wallNanos").value(wall);
    w.key("domains").beginArray();
    for (const DomainTotals &dom : domainTotals()) {
        w.beginObject();
        w.key("domain").value(dom.domain);
        w.key("selfNanos").value(dom.selfNanos);
        w.key("totalNanos").value(dom.totalNanos);
        w.key("calls").value(dom.calls);
        const double share =
            wall > 0 ? static_cast<double>(dom.selfNanos) /
                           static_cast<double>(wall)
                     : 0.0;
        w.key("share").value(share);
        w.endObject();
    }
    w.endArray();
    w.key("sites").beginArray();
    for (const SiteTotals &row : siteTotals()) {
        w.beginObject();
        w.key("domain").value(row.domain);
        w.key("name").value(row.name);
        w.key("selfNanos").value(row.selfNanos);
        w.key("totalNanos").value(row.totalNanos);
        w.key("calls").value(row.calls);
        w.key("timedCalls").value(row.timedCalls);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return os.str();
}

std::string
RunProfile::foldedText() const
{
    const std::vector<SiteInfo> infos = siteTable();
    const auto frameName = [&](SiteId site) -> std::string {
        if (site < infos.size())
            return infos[site].domain + "." + infos[site].name;
        return "site#" + std::to_string(site);
    };

    std::vector<std::string> lines;
    std::uint64_t selfSum = 0;
    if (!trie.empty()) {
        // Depth-first over the trie, carrying the folded prefix.
        std::vector<std::pair<std::uint32_t, std::string>> work;
        work.emplace_back(0, std::string());
        while (!work.empty()) {
            const auto [node, prefix] = work.back();
            work.pop_back();
            for (const std::uint32_t child : trie[node].children) {
                const std::string path =
                    prefix.empty()
                        ? frameName(trie[child].site)
                        : prefix + ";" + frameName(trie[child].site);
                if (trie[child].selfNanos > 0) {
                    lines.push_back(
                        path + " " +
                        std::to_string(trie[child].selfNanos));
                    selfSum += trie[child].selfNanos;
                }
                work.emplace_back(child, path);
            }
        }
    }
    std::sort(lines.begin(), lines.end());
    const std::uint64_t leftover = wall >= selfSum ? wall - selfSum : 0;
    if (leftover > 0)
        lines.push_back("other " + std::to_string(leftover));
    std::string out;
    for (const std::string &line : lines) {
        out += line;
        out += "\n";
    }
    return out;
}

ProfileSession::ProfileSession(RunProfile &profile)
    : prof(profile), prev(installCurrent(&profile)),
      startTicks(nowTicks())
{
}

ProfileSession::~ProfileSession()
{
    const std::uint64_t now = nowTicks();
    prof.closeWindow(now >= startTicks ? now - startTicks : 0);
    installCurrent(prev);
}

} // namespace capcheck::prof
