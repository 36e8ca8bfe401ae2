/**
 * @file
 * RISC-V IOPMP model: a small set of physical-memory regions checked
 * associatively against each request's source (task). Byte-granular but
 * limited to a handful of regions — real implementations are "limited
 * to single-digit or teen numbers of regions" (Section 3.2) because the
 * parallel comparators are expensive.
 */

#ifndef CAPCHECK_PROTECT_IOPMP_HH
#define CAPCHECK_PROTECT_IOPMP_HH

#include <optional>
#include <vector>

#include "protect/checker.hh"

namespace capcheck::protect
{

class Iopmp : public ProtectionChecker
{
  public:
    struct Region
    {
        TaskId task = invalidTaskId;
        Addr base = 0;
        std::uint64_t size = 0;
        bool allowRead = true;
        bool allowWrite = true;
    };

    /** @param num_regions comparator count (default 16). */
    explicit Iopmp(unsigned num_regions = 16);

    /**
     * Program a region for a task.
     * @return region index, or nullopt when all comparators are in use.
     */
    std::optional<unsigned> addRegion(const Region &region);

    /** Clear all regions belonging to @p task. */
    void removeTaskRegions(TaskId task);

    CheckResult check(const MemRequest &req) override;
    std::size_t entriesUsed() const override;
    SchemeProperties properties() const override;

    std::string
    name() const override
    {
        return "iopmp";
    }

  private:
    unsigned limit;
    std::vector<Region> regions;
};

} // namespace capcheck::protect

#endif // CAPCHECK_PROTECT_IOPMP_HH
