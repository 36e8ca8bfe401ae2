/**
 * @file
 * Untimed functional accessor: buffers are plain host byte arrays.
 * Used for kernel unit testing and anywhere functional behaviour is
 * needed without a simulated system underneath.
 */

#ifndef CAPCHECK_WORKLOADS_HOST_ACCESSOR_HH
#define CAPCHECK_WORKLOADS_HOST_ACCESSOR_HH

#include <vector>

#include "base/logging.hh"
#include "workloads/accessor.hh"
#include "workloads/buffer_spec.hh"

namespace capcheck::workloads
{

class HostAccessor : public MemoryAccessor
{
  public:
    /** Allocate zeroed host buffers matching @p spec. */
    explicit HostAccessor(const KernelSpec &spec)
    {
        for (const BufferDef &buf : spec.buffers)
            buffers.emplace_back(buf.size, 0);
        // Nothing is accounted: loads go unlogged, and the logged
        // stores are dropped by consume().
        std::vector<Window> w;
        for (std::vector<std::uint8_t> &buf : buffers) {
            const Range whole{0, buf.size()};
            w.push_back({buf.data(), whole, whole, false});
        }
        setWindows(std::move(w));
    }

    /** Direct access for tests. */
    const std::vector<std::uint8_t> &bufferData(ObjectId obj) const
    {
        return buffers.at(obj);
    }

  private:
    void consume(const Event *, std::size_t) override {}

    void
    unwindowed(Event::Kind, ObjectId obj, std::uint64_t off, void *,
               const void *, std::uint32_t size) override
    {
        panic("host access out of range: obj=%u off=%llu size=%u", obj,
              static_cast<unsigned long long>(off), size);
    }

    std::vector<std::vector<std::uint8_t>> buffers;
};

} // namespace capcheck::workloads

#endif // CAPCHECK_WORKLOADS_HOST_ACCESSOR_HH
