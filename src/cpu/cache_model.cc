#include "cpu/cache_model.hh"

#include <algorithm>

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace capcheck
{

CacheModel::CacheModel(std::uint64_t size_bytes, std::uint64_t line_bytes,
                       unsigned ways)
    : lineSize(line_bytes), offsetBits(floorLog2(line_bytes)),
      numWays(ways)
{
    const std::uint64_t num_sets =
        ways ? size_bytes / line_bytes / ways : 0;
    if (!isPowerOf2(size_bytes) || !isPowerOf2(line_bytes) || ways == 0 ||
        num_sets == 0 || !isPowerOf2(num_sets))
        fatal("CacheModel: bad geometry %llu/%llu/%u",
              static_cast<unsigned long long>(size_bytes),
              static_cast<unsigned long long>(line_bytes), ways);
    setMask = num_sets - 1;
    this->ways.resize(num_sets * ways);
}

void
CacheModel::flush()
{
    std::fill(ways.begin(), ways.end(), Way{});
    useClock = 0;
}

} // namespace capcheck
