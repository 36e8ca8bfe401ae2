#include "capchecker/capchecker.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "base/trace.hh"
#include "obs/prof.hh"

namespace capcheck::capchecker
{

const char *
provenanceName(Provenance mode)
{
    return mode == Provenance::fine ? "fine" : "coarse";
}

bool
provenanceFromName(const std::string &name, Provenance &out)
{
    if (name == "fine") {
        out = Provenance::fine;
        return true;
    }
    if (name == "coarse") {
        out = Provenance::coarse;
        return true;
    }
    return false;
}

CapChecker::CapChecker() : CapChecker(Params{})
{
}

CapChecker::CapChecker(const Params &params)
    : params(params), table(params.tableEntries)
{
    if (params.cacheEntries > 0) {
        cache = std::make_unique<CapCache>(params.cacheEntries,
                                           params.cacheWalkCycles);
    }
}

std::optional<unsigned>
CapChecker::installCapability(TaskId task, ObjectId obj,
                              const cheri::Capability &cap)
{
    if (params.provenance == Provenance::coarse && obj >= 256)
        fatal("coarse CapChecker: object id %u does not fit in 8 bits",
              obj);
    return table.install(task, obj, cap);
}

unsigned
CapChecker::evictTask(TaskId task)
{
    if (cache)
        cache->invalidateTask(task);
    const unsigned freed = table.evictTask(task);
    _evictProbe.notify(CapEvictEvent{task, freed});
    return freed;
}

Addr
CapChecker::accelAddress(ObjectId obj, Addr base) const
{
    if (params.provenance == Provenance::fine)
        return base;
    if (base >= (Addr{1} << coarseAddrBits))
        fatal("coarse CapChecker: physical address beyond 56 bits");
    return (Addr{obj} << coarseAddrBits) | base;
}

protect::CheckResult
CapChecker::deny(const MemRequest &req, TaskId task, ObjectId obj,
                 Addr addr, std::string why,
                 const CapTable::Entry *entry)
{
    ++_denied;
    exceptionFlag = true;
    // The exception bit lives in the matched entry; denials with no
    // matching entry (missing capability, missing metadata) have
    // nothing to mark — and markException treats a miss as a
    // driver/checker desync.
    if (entry)
        table.markException(task, obj);
    ExceptionRecord record{task, obj, addr, req.cmd, why};
    if (entry) {
        record.capValid = true;
        record.capBase = entry->decoded.base();
        record.capLength =
            static_cast<std::uint64_t>(entry->decoded.length());
        record.capPerms = entry->decoded.perms();
    }
    exceptions.push_back(record);
    _exceptionProbe.notify(exceptions.back());
    CAPCHECK_DPRINTF(debug::capchecker,
                     "DENY task=%u obj=%u %s 0x%llx+%u: %s", task, obj,
                     memCmdName(req.cmd),
                     static_cast<unsigned long long>(addr), req.size,
                     why.c_str());
    return protect::CheckResult::deny(std::move(why));
}

protect::CheckResult
CapChecker::check(const MemRequest &req)
{
    PROF_SCOPE("capcheck", "check");
    ++_checks;
    lastWalk = 0;

    const auto decided = [&](protect::CheckResult result) {
        _checkResultProbe.notify(
            CheckResultEvent{&req, result.allowed, lastWalk});
        return result;
    };

    // Recover provenance: which object does this access intend?
    ObjectId obj;
    Addr addr;
    if (params.provenance == Provenance::fine) {
        obj = req.object;
        addr = req.addr;
        if (obj == invalidObjectId) {
            return decided(deny(
                req, req.task, obj, addr,
                "capchecker: request carries no object metadata"));
        }
    } else {
        obj = static_cast<ObjectId>(req.addr >> coarseAddrBits);
        addr = req.addr & mask(coarseAddrBits);
    }

    const CapTable::Entry *entry = table.lookup(req.task, obj);
    if (!entry) {
        return decided(
            deny(req, req.task, obj, addr,
                 "capchecker: no capability for (task, object)"));
    }

    // With a cached CapChecker the entry may need fetching from the
    // in-memory table first.
    if (cache) {
        lastWalk = cache->access(req.task, obj);
        if (lastWalk == 0)
            _cacheHitProbe.notify(CapCacheEvent{req.task, obj});
        else
            _cacheMissProbe.notify(CapCacheEvent{req.task, obj});
    }

    const cheri::AccessKind kind = req.cmd == MemCmd::write
                                       ? cheri::AccessKind::store
                                       : cheri::AccessKind::load;
    const cheri::CapFault fault =
        entry->decoded.checkAccess(kind, addr, req.size);
    if (fault != cheri::CapFault::none) {
        return decided(deny(req, req.task, obj, addr,
                            std::string("capchecker: ") +
                                cheri::capFaultName(fault),
                            entry));
    }
    return decided(protect::CheckResult::allow());
}

protect::SchemeProperties
CapChecker::properties() const
{
    protect::SchemeProperties p;
    p.name = name();
    p.spatialEnforcement = true;
    p.granularityBytes = 1;
    p.commonObjectRepresentation = true;
    p.unforgeable = true;
    p.scalable = "semi";
    p.addressTranslation = "optional";
    p.suitsMicrocontrollers = true;
    p.suitsApplicationProcessors = true;
    return p;
}

std::string
CapChecker::name() const
{
    return std::string("capchecker-") + provenanceName(params.provenance);
}

} // namespace capcheck::capchecker
