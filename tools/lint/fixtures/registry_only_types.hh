// dapper-lint fixture: mini mirror of the project's tracker hierarchy.
// Concrete descendants of Tracker may only be constructed in their own
// TU or a DAPPER_REGISTER_* site (see src/rh/registry.hh); a registry's
// built-in table sanctions its constructions with DAPPER_LINT_ALLOW.
#ifndef FIXTURE_REGISTRY_ONLY_TYPES_HH
#define FIXTURE_REGISTRY_ONLY_TYPES_HH

namespace fixture {

class Tracker
{
  public:
    virtual ~Tracker() = default;
    virtual int mitigate() = 0;
};

class FixtureTracker final : public Tracker
{
  public:
    int mitigate() override;
};

} // namespace fixture

#endif // FIXTURE_REGISTRY_ONLY_TYPES_HH
