#include "prof.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "base/json.hh"
#include "base/json_value.hh"
#include "base/table.hh"

namespace capcheck::tools
{

namespace
{

bool
shapeError(const std::string &path, const char *what, std::string *error)
{
    if (error)
        *error = path + ": " + what;
    return false;
}

std::uint64_t
u64Member(const json::JsonValue &v, const char *key)
{
    const json::JsonValue *m = v.get(key);
    if (!m || !m->isNumber())
        return 0;
    const double d = m->asNumber();
    return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

double
numMember(const json::JsonValue &v, const char *key)
{
    const json::JsonValue *m = v.get(key);
    return m && m->isNumber() ? m->asNumber() : 0.0;
}

std::string
strMember(const json::JsonValue &v, const char *key)
{
    const json::JsonValue *m = v.get(key);
    return m && m->isString() ? m->asString() : std::string();
}

void
insertRun(ProfReport &report, ProfRun run)
{
    const auto it = std::find_if(
        report.runs.begin(), report.runs.end(),
        [&](const ProfRun &r) { return r.label == run.label; });
    if (it != report.runs.end()) {
        *it = std::move(run);
        return;
    }
    report.runs.push_back(std::move(run));
    std::sort(report.runs.begin(), report.runs.end(),
              [](const ProfRun &a, const ProfRun &b) {
                  return a.label < b.label;
              });
}

/** Parse one run object ({"label","wallNanos","domains","sites"});
 *  false when the required members are malformed. */
bool
parseRun(const json::JsonValue &v, const std::string &path,
         ProfRun &run)
{
    const json::JsonValue *label = v.get("label");
    const json::JsonValue *domains = v.get("domains");
    if (!label || !label->isString() || !domains || !domains->isArray())
        return false;
    run.label = label->asString();
    run.wallNanos = u64Member(v, "wallNanos");
    run.source = path;
    for (const json::JsonValue &d : domains->elements()) {
        ProfDomain dom;
        dom.domain = strMember(d, "domain");
        dom.selfNanos = u64Member(d, "selfNanos");
        dom.totalNanos = u64Member(d, "totalNanos");
        dom.calls = u64Member(d, "calls");
        dom.share = numMember(d, "share");
        run.domains.push_back(std::move(dom));
    }
    if (const json::JsonValue *sites = v.get("sites");
        sites && sites->isArray()) {
        for (const json::JsonValue &s : sites->elements()) {
            ProfSite site;
            site.domain = strMember(s, "domain");
            site.name = strMember(s, "name");
            site.selfNanos = u64Member(s, "selfNanos");
            site.totalNanos = u64Member(s, "totalNanos");
            site.calls = u64Member(s, "calls");
            site.timedCalls = u64Member(s, "timedCalls");
            run.sites.push_back(std::move(site));
        }
    }
    return true;
}

std::string
fmtMillis(std::uint64_t nanos)
{
    return fmtDouble(static_cast<double>(nanos) / 1e6, 2);
}

std::string
fmtShare(double share)
{
    if (std::isnan(share))
        return "-";
    return fmtDouble(share * 100.0, 1) + "%";
}

/** "a.json, b.json" or "(no files)" for diff provenance messages. */
std::string
joinFiles(const std::vector<std::string> &files)
{
    if (files.empty())
        return "(no files)";
    std::string out;
    for (const std::string &f : files) {
        if (!out.empty())
            out += ", ";
        out += f;
    }
    return out;
}

} // namespace

double
ProfRun::domainShare(const std::string &domain) const
{
    for (const ProfDomain &d : domains) {
        if (d.domain == domain) {
            if (d.share > 0 || wallNanos == 0)
                return d.share;
            return static_cast<double>(d.selfNanos) /
                   static_cast<double>(wallNanos);
        }
    }
    return std::nan("");
}

const ProfRun *
ProfReport::find(const std::string &label) const
{
    for (const ProfRun &run : runs) {
        if (run.label == label)
            return &run;
    }
    return nullptr;
}

bool
loadProfDocument(const std::string &path, ProfReport &report,
                 std::string *error)
{
    std::string parse_error;
    const auto doc = json::parseJsonFile(path, &parse_error);
    if (!doc) {
        if (error)
            *error = path + ": " + parse_error;
        return false;
    }
    if (!doc->isObject())
        return shapeError(path, "not a JSON object", error);

    report.sources.push_back(path);

    // Merged report: {"runs": [{...profile...}]}.
    if (const json::JsonValue *runs = doc->get("runs")) {
        if (!runs->isArray())
            return shapeError(path, "\"runs\" is not an array", error);
        for (const json::JsonValue &entry : runs->elements()) {
            ProfRun run;
            if (!parseRun(entry, path, run)) {
                return shapeError(
                    path, "run entry without label/domains", error);
            }
            insertRun(report, std::move(run));
        }
        return true;
    }

    // Single-run artefact (schema capcheck.prof.v1).
    ProfRun run;
    if (!parseRun(*doc, path, run))
        return shapeError(path, "missing label/domains members", error);
    insertRun(report, std::move(run));
    return true;
}

std::string
mergedProfJson(const ProfReport &report)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("capcheck.prof.v1");
    w.key("runs").beginArray();
    for (const ProfRun &run : report.runs) {
        w.beginObject();
        w.key("label").value(run.label);
        w.key("wallNanos").value(run.wallNanos);
        w.key("domains").beginArray();
        for (const ProfDomain &d : run.domains) {
            w.beginObject();
            w.key("domain").value(d.domain);
            w.key("selfNanos").value(d.selfNanos);
            w.key("totalNanos").value(d.totalNanos);
            w.key("calls").value(d.calls);
            w.key("share").value(d.share);
            w.endObject();
        }
        w.endArray();
        w.key("sites").beginArray();
        for (const ProfSite &s : run.sites) {
            w.beginObject();
            w.key("domain").value(s.domain);
            w.key("name").value(s.name);
            w.key("selfNanos").value(s.selfNanos);
            w.key("totalNanos").value(s.totalNanos);
            w.key("calls").value(s.calls);
            w.key("timedCalls").value(s.timedCalls);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return os.str();
}

bool
ProfDiffResult::regression() const
{
    for (const ProfDelta &d : deltas) {
        if (d.regression)
            return true;
    }
    return false;
}

ProfDiffResult
diffProfReports(const ProfReport &baseline, const ProfReport &current,
                const ProfDiffOptions &opts)
{
    ProfDiffResult diff;
    diff.baselineFiles = baseline.sources;
    diff.currentFiles = current.sources;
    for (const ProfRun &base : baseline.runs) {
        const ProfRun *cur = current.find(base.label);
        if (!cur) {
            diff.missing.push_back(base.label);
            diff.missingSources.push_back(base.source);
            continue;
        }
        // Union of domains on both sides, sorted: a domain absent on
        // one side compares as share 0, so newly appearing hot
        // domains regress rather than silently skipping comparison.
        std::set<std::string> names;
        for (const ProfDomain &d : base.domains)
            names.insert(d.domain);
        for (const ProfDomain &d : cur->domains)
            names.insert(d.domain);
        for (const std::string &name : names) {
            ProfDelta d;
            d.label = base.label;
            d.domain = name;
            const double bs = base.domainShare(name);
            const double cs = cur->domainShare(name);
            d.baselineShare = std::isnan(bs) ? 0.0 : bs;
            d.currentShare = std::isnan(cs) ? 0.0 : cs;
            d.deltaPts =
                (d.currentShare - d.baselineShare) * 100.0;
            d.regression = d.deltaPts > opts.tolerancePts;
            diff.deltas.push_back(std::move(d));
        }
    }
    for (const ProfRun &run : current.runs) {
        if (!baseline.find(run.label)) {
            diff.added.push_back(run.label);
            diff.addedSources.push_back(run.source);
        }
    }
    return diff;
}

bool
printProfDiff(std::ostream &os, const ProfDiffResult &diff,
              const ProfDiffOptions &opts)
{
    TextTable table({"run", "domain", "baseline", "current", "delta",
                     "verdict"});
    for (const ProfDelta &d : diff.deltas) {
        std::string delta = fmtDouble(d.deltaPts, 1) + "pts";
        if (d.deltaPts > 0)
            delta = "+" + delta;
        table.addRow({d.label, d.domain, fmtShare(d.baselineShare),
                      fmtShare(d.currentShare), delta,
                      d.regression ? "REGRESSION" : "ok"});
    }
    table.print(os);
    for (std::size_t i = 0; i < diff.missing.size(); ++i) {
        os << "missing from current: '" << diff.missing[i] << "'";
        if (i < diff.missingSources.size() &&
            !diff.missingSources[i].empty()) {
            os << " (baselined in " << diff.missingSources[i]
               << "; expected in " << joinFiles(diff.currentFiles)
               << ")";
        }
        os << "\n";
    }
    for (std::size_t i = 0; i < diff.added.size(); ++i) {
        os << "new run (no baseline): '" << diff.added[i] << "'";
        if (i < diff.addedSources.size() &&
            !diff.addedSources[i].empty()) {
            os << " (found in " << diff.addedSources[i]
               << "; no counterpart in "
               << joinFiles(diff.baselineFiles) << ")";
        }
        os << "\n";
    }

    const bool regressed = diff.regression();
    os << (regressed ? "FAIL" : "PASS") << ": "
       << diff.deltas.size() << " domain shares compared, tolerance "
       << fmtDouble(opts.tolerancePts, 1) << "pts\n";
    return regressed;
}

void
printProfReport(std::ostream &os, const ProfReport &report,
                unsigned top_sites)
{
    for (const ProfRun &run : report.runs) {
        os << "run: " << run.label << ", wall "
           << fmtMillis(run.wallNanos) << "ms\n";

        TextTable domains(
            {"domain", "selfMs", "share", "totalMs", "calls"});
        for (const ProfDomain &d : run.domains) {
            domains.addRow({d.domain, fmtMillis(d.selfNanos),
                            fmtShare(d.share),
                            fmtMillis(d.totalNanos),
                            std::to_string(d.calls)});
        }
        domains.print(os);

        if (run.sites.empty())
            continue;
        // Hottest sites by self time.
        std::vector<const ProfSite *> sorted;
        for (const ProfSite &s : run.sites)
            sorted.push_back(&s);
        std::sort(sorted.begin(), sorted.end(),
                  [](const ProfSite *a, const ProfSite *b) {
                      if (a->selfNanos != b->selfNanos)
                          return a->selfNanos > b->selfNanos;
                      return std::tie(a->domain, a->name) <
                             std::tie(b->domain, b->name);
                  });
        if (top_sites && sorted.size() > top_sites)
            sorted.resize(top_sites);
        TextTable sites(
            {"site", "selfMs", "totalMs", "calls", "timedCalls"});
        for (const ProfSite *s : sorted) {
            sites.addRow({s->domain + "." + s->name,
                          fmtMillis(s->selfNanos),
                          fmtMillis(s->totalNanos),
                          std::to_string(s->calls),
                          std::to_string(s->timedCalls)});
        }
        sites.print(os);
    }
    os << "(self = host nanoseconds in the domain's own scopes; "
          "share = self / run wall time; timedCalls = calls that "
          "read the clock, the rest were sampled out or sat in a "
          "scope of their own domain)\n";
}

} // namespace capcheck::tools
