/**
 * @file
 * Declarative platform description: a named graph of component nodes
 * (memory controllers, channel routers, protection checkers, check
 * stages, interconnects, accelerator attachment pools) plus the port
 * bindings between them. The five paper configurations are canonical
 * builtins; arbitrary shapes — N memory channels, banked checkers,
 * heterogeneous pools on separate crossbars — load from JSON through
 * the base/json_value parser and dump back losslessly, so a topology
 * file round-trips byte-for-byte through load -> dump -> load.
 */

#ifndef CAPCHECK_SYSTEM_TOPOLOGY_HH
#define CAPCHECK_SYSTEM_TOPOLOGY_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "base/json_value.hh"
#include "system/soc_config.hh"

namespace capcheck::system
{

/**
 * Malformed topology document or file. Structured in the PortError
 * style: the message always embeds the offending node/edge when one is
 * known, and the accessors expose it (plus the source file) so tools
 * and tests can key on the endpoint instead of parsing the message.
 */
class TopologyError : public std::runtime_error
{
  public:
    explicit TopologyError(const std::string &what,
                           std::string node = "",
                           std::string file = "")
        : std::runtime_error(what), _node(std::move(node)),
          _file(std::move(file))
    {
    }

    /** Offending node name or edge endpoint ("" when structural). */
    const std::string &node() const { return _node; }

    /** Source file the topology loaded from ("" for in-memory). */
    const std::string &file() const { return _file; }

  private:
    std::string _node;
    std::string _file;
};

/**
 * One component in the graph. @c kind selects the component class the
 * elaborator instantiates; @c params carries its kind-specific
 * configuration verbatim (unset parameters fall back to the
 * SocConfig the topology is elaborated under, which is what lets one
 * file serve every mode/provenance sweep point).
 *
 * Kinds and their params:
 *  - "memctrl":    {"latency": cycles}
 *  - "router":     {"interleaveBytes": bytes}
 *  - "protect":    {"scheme": "auto|none|capchecker|checker_bank|
 *                   iommu|iopmp", "banks": n, "iotlbEntries": n,
 *                   "iopmpRegions": n} — functional checker, not a
 *                   port-bearing component
 *  - "checkstage": {"checker": "<protect node name>", "bank": n} —
 *                   'bank' addresses one member of a CheckerBank (so
 *                   per-pool stages can sit above a shared crossbar);
 *                   a no-op when the checker is not banked
 *  - "xbar":       {"masters": n, "maxBurst": beats} — 'masters'
 *                   defaults to the attached tasks plus any
 *                   accel_side<i> slots edges bind (cascaded xbars)
 *  - "accel_pool": {"xbar": "<xbar node name>"} — attachment point
 *                   for accelerator masters; tasks are assigned to
 *                   pools round-robin
 */
struct TopologyNode
{
    std::string name;
    std::string kind;
    json::JsonValue params; ///< always an object (possibly empty)
};

/** One port binding, endpoints in "component.port" form. */
struct TopologyEdge
{
    std::string from;
    std::string to;
};

struct Topology
{
    std::string name;
    std::vector<TopologyNode> nodes; ///< construction order
    std::vector<TopologyEdge> edges;

    /**
     * False for the CPU-only configurations, whose topology has no
     * timed platform components at all.
     */
    bool hasPlatform() const { return !nodes.empty(); }

    const TopologyNode *findNode(const std::string &node_name) const;

    /**
     * The canonical builtin for @p mode: the platform the paper
     * evaluates in that configuration. Elaborating it reproduces the
     * pinned results (BENCH_grid.sha256) byte for byte.
     */
    static Topology builtin(SystemMode mode);

    /** Builtin by configuration name ("ccpu+caccel", ...). */
    static Topology builtinByName(const std::string &config_name);

    /** The five configuration names, in paper order. */
    static const std::vector<std::string> &builtinNames();

    /** @throw TopologyError on any structural problem. */
    static Topology fromJson(const json::JsonValue &doc);

    /** @throw TopologyError when unreadable or invalid. */
    static Topology loadFile(const std::string &path);

    json::JsonValue toJson() const;

    /** Deterministic JSON text (the --dump-topology output). */
    std::string toJsonText() const;
};

} // namespace capcheck::system

#endif // CAPCHECK_SYSTEM_TOPOLOGY_HH
