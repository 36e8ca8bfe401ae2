#include "service/inprocess.hh"

#include "harness/result_json.hh"

namespace capcheck::service
{

std::vector<harness::RunOutcome>
InProcessService::submit(
    const std::vector<harness::RunRequest> &requests,
    const std::string &sweep_name, const Sink &sink)
{
    auto outcomes = runner.run(requests, sweep_name);
    if (sink) {
        // In-process there is nothing to overlap with, so the stream
        // fires after the batch, in input order — deterministic, and
        // exactly the artefact order the JSON writer used.
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const harness::RunOutcome &o = outcomes[i];
            const std::string body =
                harness::runJson(o.request, o.result);
            StreamItem item;
            item.index = i;
            item.hash = o.request.hash();
            item.status = o.cacheHit ? RunStatus::cached
                                     : RunStatus::executed;
            item.result = &o.result;
            item.resultJson = &body;
            item.wallMillis = o.wallMillis;
            sink(item);
        }
    }
    return outcomes;
}

ServiceStats
InProcessService::stats()
{
    ServiceStats s;
    s.executed = runner.simulationsExecuted();
    s.cacheHits = runner.cacheHits();
    s.jobs = runner.jobs();
    s.cache = runner.cache().stats();
    return s;
}

} // namespace capcheck::service
