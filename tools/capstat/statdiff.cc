#include "statdiff.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "base/json.hh"
#include "base/table.hh"

namespace capcheck::tools
{

namespace
{

/**
 * Re-emit a parsed value through the streaming writer. Numbers that
 * are exactly representable integers are written as integers so a
 * merged report looks like the artefacts it came from.
 */
void
writeValue(json::JsonWriter &w, const json::JsonValue &v)
{
    using Kind = json::JsonValue::Kind;
    switch (v.kind()) {
      case Kind::null:
        w.nullValue();
        break;
      case Kind::boolean:
        w.value(v.asBool());
        break;
      case Kind::number: {
        const double d = v.asNumber();
        if (d == std::floor(d) && std::abs(d) < 9007199254740992.0 &&
            !std::signbit(d)) {
            w.value(static_cast<std::uint64_t>(d));
        } else if (d == std::floor(d) &&
                   std::abs(d) < 9007199254740992.0) {
            w.value(static_cast<std::int64_t>(d));
        } else {
            w.value(d);
        }
        break;
      }
      case Kind::string:
        w.value(v.asString());
        break;
      case Kind::array:
        w.beginArray();
        for (const json::JsonValue &e : v.elements())
            writeValue(w, e);
        w.endArray();
        break;
      case Kind::object:
        w.beginObject();
        for (const auto &[key, member] : v.members()) {
            w.key(key);
            writeValue(w, member);
        }
        w.endObject();
        break;
    }
}

void
insertRun(LatencyReport &report, RunMetrics run)
{
    const auto it = std::find_if(
        report.runs.begin(), report.runs.end(),
        [&](const RunMetrics &r) { return r.label == run.label; });
    if (it != report.runs.end()) {
        *it = std::move(run);
        return;
    }
    report.runs.push_back(std::move(run));
    std::sort(report.runs.begin(), report.runs.end(),
              [](const RunMetrics &a, const RunMetrics &b) {
                  return a.label < b.label;
              });
}

bool
shapeError(const std::string &path, const char *what, std::string *error)
{
    if (error)
        *error = path + ": " + what;
    return false;
}

/** Percent change current vs baseline with a sane zero-baseline rule. */
double
pctChange(double baseline, double current)
{
    if (baseline > 0)
        return (current - baseline) / baseline * 100.0;
    return current > 0 ? 100.0 : 0.0;
}

std::string
fmtCycles(double v)
{
    if (std::isnan(v))
        return "-";
    return fmtDouble(v, 2);
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
RunMetrics::metric(const std::string &path) const
{
    const json::JsonValue *v = flights.at(path);
    if (!v || !v->isNumber())
        return std::nan("");
    return v->asNumber();
}

const RunMetrics *
LatencyReport::find(const std::string &label) const
{
    for (const RunMetrics &run : runs) {
        if (run.label == label)
            return &run;
    }
    return nullptr;
}

bool
loadLatencyDocument(const std::string &path, LatencyReport &report,
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

    // Merged report: {"runs": [{"label": ..., "flights": {...}}]}.
    if (const json::JsonValue *runs = doc->get("runs")) {
        if (!runs->isArray())
            return shapeError(path, "\"runs\" is not an array", error);
        for (const json::JsonValue &entry : runs->elements()) {
            const json::JsonValue *label = entry.get("label");
            const json::JsonValue *flights = entry.get("flights");
            if (!label || !label->isString() || !flights ||
                !flights->isObject()) {
                return shapeError(
                    path, "run entry without label/flights", error);
            }
            insertRun(report,
                      RunMetrics{label->asString(), *flights, path});
        }
        return true;
    }

    // Single-run artefact: {"label": ..., "flights": {...}}.
    const json::JsonValue *label = doc->get("label");
    const json::JsonValue *flights = doc->get("flights");
    if (!label || !label->isString() || !flights || !flights->isObject())
        return shapeError(path, "missing label/flights members", error);
    insertRun(report, RunMetrics{label->asString(), *flights, path});
    return true;
}

std::string
mergedJson(const LatencyReport &report)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("runs").beginArray();
    for (const RunMetrics &run : report.runs) {
        w.beginObject();
        w.key("label").value(run.label);
        w.key("flights");
        writeValue(w, run.flights);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return os.str();
}

bool
DiffResult::regression() const
{
    for (const MetricDelta &d : deltas) {
        if (d.regression)
            return true;
    }
    return false;
}

DiffResult
diffReports(const LatencyReport &baseline, const LatencyReport &current,
            const DiffOptions &opts)
{
    DiffResult diff;
    diff.baselineFiles = baseline.sources;
    diff.currentFiles = current.sources;
    for (const RunMetrics &base : baseline.runs) {
        const RunMetrics *cur = current.find(base.label);
        if (!cur) {
            diff.missing.push_back(base.label);
            diff.missingSources.push_back(base.source);
            continue;
        }
        for (const std::string &metric : opts.metrics) {
            MetricDelta d;
            d.label = base.label;
            d.metric = metric;
            d.baseline = base.metric(metric);
            d.current = cur->metric(metric);
            if (std::isnan(d.baseline) || std::isnan(d.current))
                continue; // metric absent on one side: not comparable
            d.pct = pctChange(d.baseline, d.current);
            d.regression = d.pct > opts.tolerancePct;
            diff.deltas.push_back(std::move(d));
        }
    }
    for (const RunMetrics &run : current.runs) {
        if (!baseline.find(run.label)) {
            diff.added.push_back(run.label);
            diff.addedSources.push_back(run.source);
        }
    }
    return diff;
}

bool
printDiff(std::ostream &os, const DiffResult &diff,
          const DiffOptions &opts)
{
    TextTable table({"run", "metric", "baseline", "current", "change",
                     "verdict"});
    for (const MetricDelta &d : diff.deltas) {
        std::string change = fmtDouble(d.pct, 2) + "%";
        if (d.pct > 0)
            change = "+" + change;
        table.addRow({d.label, d.metric, fmtCycles(d.baseline),
                      fmtCycles(d.current), change,
                      d.regression ? "REGRESSION" : "ok"});
    }
    table.print(os);
    // One-sided labels name the file they came from and the file(s)
    // the counterpart was expected in, so a typo'd baseline path or a
    // renamed run label is diagnosable from the message alone.
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
       << diff.deltas.size() << " metrics compared, tolerance "
       << fmtDouble(opts.tolerancePct, 1) << "%\n";
    return regressed;
}

void
printReport(std::ostream &os, const LatencyReport &report)
{
    TextTable table({"run", "flights", "p50", "p95", "p99", "mean",
                     "xbar", "check", "drain", "mem"});
    for (const RunMetrics &run : report.runs) {
        const double samples = run.metric("endToEnd.samples");
        table.addRow({
            run.label,
            std::isnan(samples)
                ? std::string("-")
                : std::to_string(static_cast<std::uint64_t>(samples)),
            fmtCycles(run.metric("endToEnd.p50")),
            fmtCycles(run.metric("endToEnd.p95")),
            fmtCycles(run.metric("endToEnd.p99")),
            fmtCycles(run.metric("endToEnd.mean")),
            fmtCycles(run.metric("hops.xbarWait.mean")),
            fmtCycles(run.metric("hops.check.mean")),
            fmtCycles(run.metric("hops.drain.mean")),
            fmtCycles(run.metric("hops.mem.mean")),
        });
    }
    table.print(os);
    os << "(end-to-end percentiles in cycles; hop columns are mean "
          "cycles per flight)\n";
}

bool
printTopFlights(std::ostream &os, const std::string &path,
                unsigned limit, std::string *error)
{
    std::string parse_error;
    const auto doc = json::parseJsonFile(path, &parse_error);
    if (!doc) {
        if (error)
            *error = path + ": " + parse_error;
        return false;
    }
    const json::JsonValue *flights =
        doc->isObject() ? doc->get("flights") : nullptr;
    if (!flights || !flights->isArray()) {
        shapeError(path, "missing \"flights\" array", error);
        return false;
    }

    const json::JsonValue *label = doc->get("label");
    if (label && label->isString())
        os << "run: " << label->asString() << "\n";

    auto num = [](const json::JsonValue &v, const char *key) {
        const json::JsonValue *m = v.get(key);
        return m && m->isNumber() ? m->asNumber() : std::nan("");
    };
    auto str = [](const json::JsonValue &v,
                  const char *key) -> std::string {
        const json::JsonValue *m = v.get(key);
        return m && m->isString() ? m->asString() : "-";
    };
    auto intStr = [&](const json::JsonValue &v, const char *key) {
        const double d = num(v, key);
        return std::isnan(d)
                   ? std::string("-")
                   : std::to_string(static_cast<std::uint64_t>(d));
    };

    TextTable table({"flight", "task", "cmd", "addr", "cache", "denied",
                     "xbar", "check", "drain", "mem", "endToEnd"});
    unsigned printed = 0;
    for (const json::JsonValue &f : flights->elements()) {
        if (limit && printed >= limit)
            break;
        const json::JsonValue *hops = f.get("hops");
        auto hop = [&](const char *key) {
            return hops ? intStr(*hops, key) : std::string("-");
        };
        const json::JsonValue *denied = f.get("denied");
        table.addRow({intStr(f, "flight"), intStr(f, "task"),
                      str(f, "cmd"), str(f, "addr"), str(f, "cache"),
                      denied && denied->isBool() && denied->asBool()
                          ? "yes"
                          : "no",
                      hop("xbarWait"), hop("check"), hop("drain"),
                      hop("mem"), intStr(f, "endToEnd")});
        ++printed;
    }
    table.print(os);
    os << "(per-hop cycles; slowest first)\n";
    return true;
}

} // namespace capcheck::tools
