/**
 * @file
 * Name-keyed workload registry.
 *
 * Unifies the microbenchmark (MicrobenchConfig) and application
 * (AppConfig) factories behind one table, so drivers and CLIs can
 * enumerate, look up, and build every workload by name without
 * hardcoding the two kinds.  Input sizing is selected by Scale:
 * Full is the paper's evaluation inputs, Quick the scaled-down
 * inputs the benches' --quick mode always used, and Smoke a
 * seconds-not-minutes sizing for tests and CI smoke runs.
 */

#ifndef STASHSIM_WORKLOADS_WORKLOAD_FACTORY_HH
#define STASHSIM_WORKLOADS_WORKLOAD_FACTORY_HH

#include <functional>
#include <string>
#include <vector>

#include "config/system_config.hh"
#include "workloads/workload.hh"

namespace stashsim
{
namespace workloads
{

/** Input sizing for a workload build. */
enum class Scale
{
    Full,  //!< the paper's evaluation inputs
    Quick, //!< the benches' --quick inputs (~4x smaller)
    Smoke, //!< test/CI smoke inputs (~16x smaller)
};

/** Printable name of a scale. */
const char *scaleName(Scale s);

/** Everything a factory entry needs to build its workload. */
struct WorkloadParams
{
    MemOrg org = MemOrg::Scratch;
    /** CPU cores the workload may use; 0 = the kind's default. */
    unsigned cpuCores = 0;
    Scale scale = Scale::Full;
};

/** Registry metadata for one workload. */
struct WorkloadInfo
{
    enum class Kind
    {
        Microbenchmark,
        Application,
        Synthetic, //!< parameterized traffic generator
    };

    std::string name;
    Kind kind = Kind::Microbenchmark;
    std::string description;

    const char *
    kindName() const
    {
        switch (kind) {
          case Kind::Microbenchmark:
            return "microbenchmark";
          case Kind::Application:
            return "application";
          case Kind::Synthetic:
            return "synthetic";
          default:
            return "?";
        }
    }
};

/**
 * The workload registry; see file comment.
 */
class WorkloadFactory
{
  public:
    using Maker = std::function<Workload(const WorkloadParams &)>;

    /** The process-wide registry with every built-in registered. */
    static const WorkloadFactory &instance();

    /** Registers a workload; fatal() on duplicate names. */
    void registerWorkload(WorkloadInfo info, Maker maker);

    /** Every registered workload, in registration order. */
    const std::vector<WorkloadInfo> &list() const { return infos; }

    /** Lookup by name; nullptr when unknown. */
    const WorkloadInfo *find(const std::string &name) const;

    /** Builds @p name; fatal() when unknown. */
    Workload make(const std::string &name,
                  const WorkloadParams &params) const;

    /**
     * The Table 2 machine for @p name's kind (microbenchmarkDefault
     * or applicationDefault); fatal() when unknown.
     */
    SystemConfig defaultConfig(const std::string &name) const;

  private:
    std::vector<WorkloadInfo> infos;
    std::vector<Maker> makers; //!< parallel to infos
};

} // namespace workloads
} // namespace stashsim

#endif // STASHSIM_WORKLOADS_WORKLOAD_FACTORY_HH
