/**
 * @file
 * Fluent construction and validation of SocConfig. SocConfig itself
 * stays an aggregate (existing brace/field initialization keeps
 * working); the builder adds chainable setters and a validate() pass
 * that rejects inconsistent configurations with actionable messages
 * before a simulation is built around them.
 */

#ifndef CAPCHECK_SYSTEM_SOC_CONFIG_BUILDER_HH
#define CAPCHECK_SYSTEM_SOC_CONFIG_BUILDER_HH

#include <string>
#include <vector>

#include "system/soc_config.hh"

namespace capcheck::system
{

/**
 * Check @p cfg for internal consistency.
 *
 * @return one human-readable message per problem found; empty when the
 *         configuration is valid.
 */
std::vector<std::string> validateSocConfig(const SocConfig &cfg);

/** validateSocConfig() joined into one string (empty = valid). */
std::string validationErrors(const SocConfig &cfg);

/**
 * Fluent SocConfig builder.
 *
 *     const SocConfig cfg = SocConfigBuilder()
 *         .mode(SystemMode::ccpuCaccel)
 *         .capTableEntries(256)
 *         .seed(42)
 *         .build();
 *
 * build() runs validateSocConfig() and throws std::invalid_argument
 * listing every problem, so misconfigured sweeps fail fast instead of
 * producing silently meaningless numbers.
 */
class SocConfigBuilder
{
  public:
    SocConfigBuilder() = default;

    /** Start from an existing configuration. */
    explicit SocConfigBuilder(SocConfig base) : cfg(std::move(base)) {}

    SocConfigBuilder &mode(SystemMode m);
    SocConfigBuilder &provenance(capchecker::Provenance p);
    SocConfigBuilder &numInstances(unsigned n);
    SocConfigBuilder &capTableEntries(unsigned n);
    SocConfigBuilder &checkCycles(Cycles c);
    SocConfigBuilder &perAccelCheckers(bool on);
    SocConfigBuilder &capCache(unsigned entries,
                               Cycles walk_cycles = 60);
    SocConfigBuilder &memLatency(Cycles c);
    SocConfigBuilder &memBytes(std::uint64_t bytes);
    SocConfigBuilder &xbarMaxBurst(unsigned beats);
    SocConfigBuilder &guardBytes(std::uint64_t bytes);
    SocConfigBuilder &collectStats(bool on);
    SocConfigBuilder &cpuCosts(const CpuCostParams &costs);
    SocConfigBuilder &driverCosts(const driver::DriverCostParams &costs);
    SocConfigBuilder &seed(std::uint64_t s);
    /** Topology JSON file; "" restores the builtin for the mode. */
    SocConfigBuilder &topologyFile(std::string path);

    /** The configuration as accumulated so far, unvalidated. */
    const SocConfig &peek() const { return cfg; }

    /**
     * Validate and return the configuration.
     * @throw std::invalid_argument listing every validation failure.
     */
    SocConfig build() const;

  private:
    SocConfig cfg;
};

} // namespace capcheck::system

#endif // CAPCHECK_SYSTEM_SOC_CONFIG_BUILDER_HH
