#include "system/elaborator.hh"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "protect/checker_bank.hh"
#include "protect/no_protection.hh"

namespace capcheck::system
{

namespace
{

[[noreturn]] void
fail(const std::string &what, const std::string &node = "")
{
    throw TopologyError("topology: " + what, node);
}

std::uint64_t
getU64(const json::JsonValue &params, const char *key,
       std::uint64_t fallback, const std::string &node)
{
    const json::JsonValue *v = params.get(key);
    if (!v)
        return fallback;
    if (!v->isNumber() || v->asNumber() < 0) {
        fail("node '" + node + "': param '" + key +
             "' must be a non-negative number");
    }
    return static_cast<std::uint64_t>(v->asNumber());
}

unsigned
getUnsigned(const json::JsonValue &params, const char *key,
            unsigned fallback, const std::string &node)
{
    return static_cast<unsigned>(getU64(params, key, fallback, node));
}

std::string
getString(const json::JsonValue &params, const char *key,
          std::string fallback, const std::string &node)
{
    const json::JsonValue *v = params.get(key);
    if (!v)
        return fallback;
    if (!v->isString()) {
        fail("node '" + node + "': param '" + key +
             "' must be a string");
    }
    return v->asString();
}

/**
 * Collect every CheckStage reachable downstream of @p from (through
 * routers and cascaded interconnects). @p visited is the set of
 * components the walk has already entered: revisiting one means the
 * topology wired a cycle, which would otherwise recurse forever.
 */
void
collectStages(RequestPort &from,
              std::vector<protect::CheckStage *> &out,
              std::vector<const SimObject *> &visited)
{
    if (!from.bound())
        return;
    SimObject &owner = from.peerBase()->owner();
    for (const SimObject *seen : visited) {
        if (seen == &owner) {
            fail("downstream walk revisits component '" + owner.name() +
                     "': the topology wires a cycle; request paths "
                     "must form a tree ending at a memory controller",
                 owner.name());
        }
    }
    visited.push_back(&owner);
    if (auto *stage = dynamic_cast<protect::CheckStage *>(&owner)) {
        out.push_back(stage);
        collectStages(stage->memSide(), out, visited);
        return;
    }
    if (auto *router = dynamic_cast<AddrRouter *>(&owner)) {
        for (unsigned i = 0; i < router->numChannels(); ++i)
            collectStages(router->memSide(i), out, visited);
        return;
    }
    if (auto *xbar = dynamic_cast<AxiInterconnect *>(&owner)) {
        collectStages(xbar->memSide(), out, visited);
        return;
    }
    // A memory controller (or any other sink) ends the walk.
}

/**
 * Master slots of xbar nodes that topology edges bind (cascaded
 * crossbars: a child xbar's mem_side plugs into "parent.accel_side<i>").
 * Those slots are taken — task attachment must skip them.
 */
std::unordered_map<std::string, std::set<unsigned>>
edgeBoundSlots(const Topology &topo)
{
    std::unordered_map<std::string, std::set<unsigned>> taken;
    static const std::string prefix = "accel_side";
    for (const TopologyEdge &edge : topo.edges) {
        for (const std::string *end : {&edge.from, &edge.to}) {
            const auto dot = end->find('.');
            if (dot == std::string::npos)
                continue;
            const std::string component = end->substr(0, dot);
            const std::string port = end->substr(dot + 1);
            if (port.rfind(prefix, 0) != 0)
                continue;
            const std::string index = port.substr(prefix.size());
            if (index.empty() ||
                index.find_first_not_of("0123456789") !=
                    std::string::npos)
                continue;
            const TopologyNode *node = topo.findNode(component);
            if (node && node->kind == "xbar") {
                taken[component].insert(
                    static_cast<unsigned>(std::stoul(index)));
            }
        }
    }
    return taken;
}

} // namespace

bool
Platform::clearsTagsOnWrite() const
{
    for (const auto &checker : checkers) {
        if (checker->clearsTagsOnWrite())
            return true;
    }
    return false;
}

std::size_t
Platform::entriesUsed() const
{
    std::size_t total = 0;
    for (const auto &checker : checkers)
        total += checker->entriesUsed();
    return total;
}

protect::ProtectionChecker *
Platform::protectionFor(TaskId task) const
{
    const TaskAttach &attach = attachOf(task);
    std::vector<protect::CheckStage *> stages;
    std::vector<const SimObject *> visited;
    collectStages(attach.xbar->memSide(), stages, visited);

    protect::ProtectionChecker *found = nullptr;
    for (protect::CheckStage *stage : stages) {
        if (!found) {
            found = &stage->protection();
        } else if (found != &stage->protection()) {
            fail("task " + std::to_string(task) +
                     " reaches two check stages with different "
                     "checkers ('" +
                     found->name() + "' and '" +
                     stage->protection().name() +
                     "'); the driver can only program one — share a "
                     "checker or move the router below the check stage",
                 stage->name());
        }
    }
    return found;
}

capchecker::CapChecker *
Platform::checkerFor(protect::ProtectionChecker *protection, TaskId task)
{
    if (!protection)
        return nullptr;
    if (auto *bank = dynamic_cast<protect::CheckerBank *>(protection))
        return &bank->at(task);
    return dynamic_cast<capchecker::CapChecker *>(protection);
}

std::string
Platform::graphDump() const
{
    std::ostringstream os;
    os << "topology " << topologyName << "\n";
    for (SimObject *obj : registry.components()) {
        os << "component " << obj->name() << "\n";
        for (PortBase *port : obj->ports()) {
            os << "  " << port->localName() << " ["
               << (port->role() == PortBase::Role::request
                       ? "request"
                       : "response")
               << "] -> ";
            if (port->bound())
                os << port->peerBase()->fullName();
            else
                os << "(unbound)";
            os << "\n";
        }
    }
    for (std::size_t i = 0; i < checkers.size(); ++i) {
        os << "checker " << checkerNames[i] << ": "
           << checkers[i]->name() << "\n";
    }
    for (std::size_t t = 0; t < taskAttach.size(); ++t) {
        os << "task " << t << " -> " << taskAttach[t].xbar->name()
           << ".accel_side" << taskAttach[t].slot << "\n";
    }
    return os.str();
}

Platform
Elaborator::elaborate(const Topology &topo, unsigned num_tasks) const
{
    Platform platform;
    platform.topologyName = topo.name;

    // --- Pre-scan: pools, task->xbar assignment, slot counts ---
    struct PoolRef
    {
        std::string name;
        std::string xbarName;
    };
    std::vector<PoolRef> pools;
    for (const TopologyNode &node : topo.nodes) {
        if (node.kind != "accel_pool")
            continue;
        const std::string xbar_name =
            getString(node.params, "xbar", "", node.name);
        const TopologyNode *target = topo.findNode(xbar_name);
        if (!target || target->kind != "xbar") {
            fail("accel_pool '" + node.name + "' references '" +
                     xbar_name + "', which is not an xbar node",
                 node.name);
        }
        pools.push_back(PoolRef{node.name, xbar_name});
    }
    if (topo.hasPlatform() && pools.empty())
        fail("topology '" + topo.name +
             "' has no accel_pool node; accelerator masters have "
             "nowhere to attach");

    // Cascaded crossbars: slots an edge already binds (a child xbar's
    // mem_side plugged into accel_side<i>) are off-limits for tasks.
    const auto taken_slots = edgeBoundSlots(topo);

    struct PendingAttach
    {
        std::string xbarName;
        unsigned slot;
    };
    // Tasks round-robin across pools; within a pool's xbar they take
    // the lowest free slots, skipping any slot an edge occupies.
    std::unordered_map<std::string, unsigned> nextFreeSlot;
    std::unordered_map<std::string, unsigned> slotsPerXbar;
    std::vector<PendingAttach> attach;
    for (unsigned t = 0; t < num_tasks; ++t) {
        const PoolRef &pool = pools[t % pools.size()];
        unsigned &candidate = nextFreeSlot[pool.xbarName];
        const auto taken_it = taken_slots.find(pool.xbarName);
        if (taken_it != taken_slots.end()) {
            while (taken_it->second.count(candidate))
                ++candidate;
        }
        attach.push_back(PendingAttach{pool.xbarName, candidate});
        slotsPerXbar[pool.xbarName] = ++candidate;
    }

    // --- Construct components, in node (= stat-tree) order ---
    std::unordered_map<std::string, protect::ProtectionChecker *>
        checkersByName;
    // Check stages over checker "none": it allows every beat, so no
    // stage is built and the edges through it join its neighbours.
    std::set<std::string> bypassed;
    std::unordered_map<std::string, AxiInterconnect *> xbarsByName;

    for (const TopologyNode &node : topo.nodes) {
        if (node.kind == "protect") {
            protect::CheckerParams params;
            params.scheme =
                getString(node.params, "scheme", "auto", node.name);
            if (params.scheme == "auto") {
                // Resolve from the run's mode, so one topology file
                // serves every configuration sweep point.
                params.scheme =
                    modeUsesCapChecker(cfg.mode)
                        ? (cfg.perAccelCheckers ? "checker_bank"
                                                : "capchecker")
                        : "none";
            }
            if (!protect::knownCheckerScheme(params.scheme)) {
                fail("protect node '" + node.name +
                         "': unknown scheme '" + params.scheme + "'",
                     node.name);
            }
            params.cap.tableEntries = getUnsigned(
                node.params, "tableEntries", cfg.capTableEntries,
                node.name);
            params.cap.provenance = cfg.provenance;
            params.cap.checkCycles = getU64(
                node.params, "checkCycles", cfg.checkCycles, node.name);
            params.cap.cacheEntries = getUnsigned(
                node.params, "cacheEntries", cfg.capCacheEntries,
                node.name);
            params.cap.cacheWalkCycles =
                getU64(node.params, "cacheWalkCycles",
                       cfg.capCacheWalkCycles, node.name);
            params.banks =
                getUnsigned(node.params, "banks",
                            num_tasks ? num_tasks : 1, node.name);
            params.iotlbEntries = getUnsigned(
                node.params, "iotlbEntries", 32, node.name);
            params.iopmpRegions = getUnsigned(
                node.params, "iopmpRegions", 16, node.name);
            platform.checkers.push_back(protect::createChecker(params));
            platform.checkerNames.push_back(node.name);
            checkersByName[node.name] = platform.checkers.back().get();
        } else if (node.kind == "memctrl") {
            const Cycles latency = getU64(node.params, "latency",
                                          cfg.memLatency, node.name);
            platform.memctrls.push_back(
                std::make_unique<MemoryController>(eq, statRoot,
                                                   latency, node.name));
            platform.registry.add(*platform.memctrls.back());
        } else if (node.kind == "router") {
            unsigned channels =
                getUnsigned(node.params, "channels", 0, node.name);
            if (channels == 0) {
                // Derive the channel count from the mem_side<i> edges.
                const std::string prefix = node.name + ".mem_side";
                for (const TopologyEdge &edge : topo.edges) {
                    channels += edge.from.rfind(prefix, 0) == 0 ||
                                edge.to.rfind(prefix, 0) == 0;
                }
            }
            if (channels == 0) {
                fail("router '" + node.name +
                         "' has no channels: give it a 'channels' "
                         "param or mem_side<i> edges",
                     node.name);
            }
            const std::uint64_t interleave =
                getU64(node.params, "interleaveBytes",
                       AddrRouter::defaultInterleave, node.name);
            platform.routers.push_back(std::make_unique<AddrRouter>(
                eq, statRoot, channels, interleave, node.name));
            platform.registry.add(*platform.routers.back());
        } else if (node.kind == "checkstage") {
            const std::string checker_name =
                getString(node.params, "checker", "", node.name);
            const auto it = checkersByName.find(checker_name);
            if (it == checkersByName.end()) {
                fail("checkstage '" + node.name +
                         "' references protect node '" + checker_name +
                         "', which does not exist (or is declared "
                         "after it)",
                     node.name);
            }
            // A 'bank' param addresses one member of a CheckerBank so
            // per-pool stages can sit above a shared interconnect.
            // When the protect node resolves to an unbanked scheme
            // (e.g. scheme "auto" under a mode without per-accel
            // checkers) the param is a no-op and the stage wraps the
            // whole checker — one file serves every sweep point.
            protect::ProtectionChecker *target = it->second;
            if (node.params.get("bank")) {
                const unsigned bank =
                    getUnsigned(node.params, "bank", 0, node.name);
                if (auto *bankp = dynamic_cast<protect::CheckerBank *>(
                        target)) {
                    if (bank >= bankp->size()) {
                        fail("checkstage '" + node.name + "': bank " +
                                 std::to_string(bank) +
                                 " is out of range (protect node '" +
                                 checker_name + "' has " +
                                 std::to_string(bankp->size()) +
                                 " banks)",
                             node.name);
                    }
                    target = &bankp->at(bank);
                }
            }
            if (dynamic_cast<protect::NoProtection *>(target)) {
                bypassed.insert(node.name);
                continue;
            }
            platform.checkStages.push_back(
                std::make_unique<protect::CheckStage>(
                    eq, statRoot, *target, node.name));
            platform.registry.add(*platform.checkStages.back());
        } else if (node.kind == "xbar") {
            unsigned masters =
                getUnsigned(node.params, "masters", 0, node.name);
            if (masters == 0) {
                // Enough slots for the attached tasks plus every slot
                // a topology edge binds (cascaded child crossbars).
                const auto it = slotsPerXbar.find(node.name);
                if (it != slotsPerXbar.end())
                    masters = it->second;
                const auto taken_it = taken_slots.find(node.name);
                if (taken_it != taken_slots.end()) {
                    masters = std::max(
                        masters, *taken_it->second.rbegin() + 1);
                }
            }
            if (masters == 0) {
                fail("xbar '" + node.name +
                         "' has no masters: no tasks or edges attach "
                         "to its accel_side slots and no 'masters' "
                         "param is given",
                     node.name);
            }
            const unsigned burst = getUnsigned(
                node.params, "maxBurst", cfg.xbarMaxBurst, node.name);
            platform.xbars.push_back(
                std::make_unique<AxiInterconnect>(eq, statRoot, masters,
                                                  burst, node.name));
            platform.registry.add(*platform.xbars.back());
            xbarsByName[node.name] = platform.xbars.back().get();
        }
        // accel_pool: attachment point only, no component.
    }

    // --- Bind the edges (PortError on any mis-wire) ---
    // An edge into a bypassed stage's port waits for the edge out of
    // its other port; the two far ends bind directly.
    std::unordered_map<std::string, std::string> bypassPeer;
    for (const TopologyEdge &edge : topo.edges) {
        const auto through = [&](const std::string &end) {
            return bypassed.count(end.substr(0, end.find('.'))) != 0;
        };
        if (through(edge.from))
            bypassPeer[edge.from] = edge.to;
        else if (through(edge.to))
            bypassPeer[edge.to] = edge.from;
        else
            platform.registry.bind(edge.from, edge.to);
    }
    const auto peer = [&](const std::string &port) -> const std::string & {
        const auto it = bypassPeer.find(port);
        if (it == bypassPeer.end()) {
            throw PortError(PortError::Kind::unbound,
                            "port '" + port +
                                "' is not bound to any peer (left "
                                "unbound by topology '" +
                                topo.name + "')",
                            port);
        }
        return it->second;
    };
    for (const std::string &stage : bypassed) {
        const std::string &above = peer(stage + ".cpu_side");
        platform.registry.bind(above, peer(stage + ".mem_side"));
    }

    // --- Completeness: every fixed port must be bound. The
    // accel_side<i> slots bind per wave when trace players exist. ---
    for (SimObject *obj : platform.registry.components()) {
        for (PortBase *port : obj->ports()) {
            if (port->bound() ||
                port->localName().rfind("accel_side", 0) == 0)
                continue;
            throw PortError(
                PortError::Kind::unbound,
                "port '" + port->fullName() +
                    "' is not bound to any peer (left unbound by "
                    "topology '" +
                    topo.name + "')",
                port->fullName());
        }
    }

    // --- Task attachment table ---
    for (const PendingAttach &pending : attach) {
        AxiInterconnect *xbar = xbarsByName.at(pending.xbarName);
        if (pending.slot >= xbar->numMasters()) {
            fail("xbar '" + pending.xbarName + "': task attachment "
                     "needs slot " +
                     std::to_string(pending.slot) +
                     " but it has only " +
                     std::to_string(xbar->numMasters()) +
                     " master slots (tasks skip edge-bound slots)",
                 pending.xbarName);
        }
        platform.taskAttach.push_back(
            Platform::TaskAttach{xbar, pending.slot});
    }

    // Resolve every task's checker now, so an ambiguous topology is
    // an elaboration error instead of a mid-run surprise.
    for (unsigned t = 0; t < num_tasks; ++t)
        (void)platform.protectionFor(t);

    // Each crossbar settles its place in a cycle's tick order (the
    // walks above have ruled out a wired cycle).
    for (const auto &xbar : platform.xbars)
        xbar->settleOrder();

    return platform;
}

} // namespace capcheck::system
