/**
 * @file
 * Turns a Topology description into a live platform: constructs the
 * components in node order (construction order is stat-tree order),
 * binds every edge through the port layer, assigns accelerator tasks
 * to interconnect slots via the accel_pool attachment points, and
 * resolves which protection checker guards each task by walking the
 * graph downstream from its crossbar. Mis-wired topologies fail with
 * structured diagnostics (PortError / TopologyError) naming the
 * offending endpoints, never a raw assert.
 */

#ifndef CAPCHECK_SYSTEM_ELABORATOR_HH
#define CAPCHECK_SYSTEM_ELABORATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"
#include "mem/router.hh"
#include "protect/check_stage.hh"
#include "protect/factory.hh"
#include "sim/port.hh"
#include "system/topology.hh"

namespace capcheck::system
{

/** A topology brought to life; owns every platform component. */
struct Platform
{
    /** Topology this platform was elaborated from (for dumps). */
    std::string topologyName;

    ComponentRegistry registry;

    /** @{ Owned components, in node order per kind. */
    std::vector<std::unique_ptr<protect::ProtectionChecker>> checkers;
    std::vector<std::string> checkerNames; ///< parallel to checkers
    std::vector<std::unique_ptr<MemoryController>> memctrls;
    std::vector<std::unique_ptr<AddrRouter>> routers;
    std::vector<std::unique_ptr<protect::CheckStage>> checkStages;
    std::vector<std::unique_ptr<AxiInterconnect>> xbars;
    /** @} */

    /** Where a task's accelerator master plugs in. */
    struct TaskAttach
    {
        AxiInterconnect *xbar = nullptr;
        unsigned slot = 0;
    };

    /** Indexed by task index (round-robin across accel pools). */
    std::vector<TaskAttach> taskAttach;

    const TaskAttach &attachOf(unsigned task) const
    {
        return taskAttach.at(task);
    }

    /** Any checker in the platform clears tags on DMA writes. */
    bool clearsTagsOnWrite() const;

    /** Live entries summed over every owned checker. */
    std::size_t entriesUsed() const;

    /**
     * The protection backend task @p task's beats pass through, found
     * by walking downstream from its crossbar; nullptr when the path
     * reaches memory unchecked.
     * @throw TopologyError when the walk finds two check stages with
     *        different checkers (the driver could not program both).
     */
    protect::ProtectionChecker *protectionFor(TaskId task) const;

    /**
     * The CapChecker the driver must program for @p task behind its
     * @p protection (protectionFor(task)): the bank member for a
     * CheckerBank, the checker itself for a CapChecker, nullptr for
     * the schemes the driver does not program.
     */
    static capchecker::CapChecker *
    checkerFor(protect::ProtectionChecker *protection, TaskId task);

    /**
     * Deterministic text rendering of the elaborated graph: every
     * component, its ports and their bound peers, and the task
     * attachment table. Golden-file friendly.
     */
    std::string graphDump() const;
};

class Elaborator
{
  public:
    Elaborator(EventQueue &eq, stats::StatGroup *stat_root,
               const SocConfig &cfg)
        : eq(eq), statRoot(stat_root), cfg(cfg)
    {
    }

    /**
     * Elaborate @p topo for @p num_tasks concurrent tasks.
     * @throw TopologyError on unresolved references, missing pools or
     *        ambiguous checker assignment; PortError on bad binds or
     *        ports a topology leaves unbound.
     */
    Platform elaborate(const Topology &topo, unsigned num_tasks) const;

  private:
    EventQueue &eq;
    stats::StatGroup *statRoot;
    const SocConfig &cfg;
};

} // namespace capcheck::system

#endif // CAPCHECK_SYSTEM_ELABORATOR_HH
