/**
 * @file
 * AttackRegistry: string-keyed surface for naming attacker address
 * streams, mirroring TrackerRegistry (src/rh/registry.hh). Experiments
 * and tests resolve attacks by stable name ("hydra-rcc", "refresh");
 * it is the only way to name or build one. The built-in table and the
 * generator classes it constructs live together in attacks.cc.
 */

#ifndef DAPPER_WORKLOAD_ATTACK_REGISTRY_HH
#define DAPPER_WORKLOAD_ATTACK_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/common/config.hh"
#include "src/common/registry.hh"
#include "src/dram/address.hh"
#include "src/workload/trace_gen.hh"

namespace dapper {

/** One registered attack: stable name and generator factory. */
struct AttackInfo
{
    /// Stable lowercase CLI / JSON name ("refresh", "cache-thrash").
    std::string name;
    /// Build the attacker's trace generator. Never called for "none".
    std::function<std::unique_ptr<TraceGen>(
        const SysConfig &, const AddressMapper &, std::uint64_t seed)>
        make;

    bool isNone() const { return name == "none"; }
};

/**
 * Name -> AttackInfo registry (mechanics in src/common/registry.hh).
 * Entry addresses are stable for the process lifetime. Registration
 * must complete before concurrent reads (static initialization in
 * practice).
 */
class AttackRegistry : public NamedRegistry<AttackInfo>
{
  public:
    static AttackRegistry &instance();

  private:
    AttackRegistry(); ///< Registers the built-in table, in order.

    void normalize(AttackInfo &info) override;
};

namespace detail {
struct AttackRegistrar
{
    explicit AttackRegistrar(AttackInfo info)
    {
        AttackRegistry::instance().add(std::move(info));
    }
};
} // namespace detail

/** Register an attack from its own translation unit (see
 *  DAPPER_REGISTER_TRACKER for the pattern). */
#define DAPPER_REGISTER_ATTACK(token, ...)                                 \
    static const ::dapper::detail::AttackRegistrar                         \
        dapperAttackRegistrar_##token(::dapper::AttackInfo __VA_ARGS__)

} // namespace dapper

#endif // DAPPER_WORKLOAD_ATTACK_REGISTRY_HH
