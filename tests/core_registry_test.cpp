// Entry-method registry: ids are compile-time hashes of the method
// signature, and every entry method the binary names is registered
// during static initialization — before main, independent of the order
// (or whether) entry_id is ever called at run time.

#include <gtest/gtest.h>

#include "core/chare.hpp"
#include "core/registry.hpp"

namespace {

using namespace mdo;
using core::EntryId;
using core::Registry;

struct Probe : core::Chare {
  int hits = 0;
  void first(int n) { hits += n; }
  void second() { ++hits; }
  void only_in_dead_branch() {}
};

template <auto Method>
constexpr EntryId signature_id() {
  return core::detail::signature_hash(
      core::detail::method_pretty_name<Method>());
}

// A constant expression: the id exists before anything runs.
static_assert(core::entry_id<&Probe::first>() == signature_id<&Probe::first>());
static_assert(core::entry_id<&Probe::second>() >= 0);

volatile bool g_never = false;

// The only place entry_id names only_in_dead_branch; the branch never
// runs, but naming the method is enough to register it before main.
EntryId dead_branch_id() {
  if (g_never) return core::entry_id<&Probe::only_in_dead_branch>();
  return core::kInvalidEntry;
}

TEST(Registry, EntryIdIsTheSignatureHashWhateverTheCallOrder) {
  // Reverse of declaration order, and of the static_assert above.
  const EntryId b = core::entry_id<&Probe::second>();
  const EntryId a = core::entry_id<&Probe::first>();
  EXPECT_EQ(a, signature_id<&Probe::first>());
  EXPECT_EQ(b, signature_id<&Probe::second>());
  EXPECT_NE(a, b);
  EXPECT_NE(a, core::kInvalidEntry);

  const core::EntryInfo* info = Registry::instance().find(a);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, core::detail::method_pretty_name<&Probe::first>());
  Probe probe;
  Bytes args = pack_object(5);
  info->invoke(probe, args);
  EXPECT_EQ(probe.hits, 5);
}

TEST(Registry, MethodNamedOnlyInANeverTakenBranchIsAlreadyRegistered) {
  // Look the id up without calling entry_id: registration must not
  // depend on a run-time call.
  const EntryId id = signature_id<&Probe::only_in_dead_branch>();
  const core::EntryInfo* info = Registry::instance().find(id);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name,
            core::detail::method_pretty_name<&Probe::only_in_dead_branch>());
  EXPECT_EQ(dead_branch_id(), core::kInvalidEntry);
}

TEST(Registry, UnknownIdIsNotFound) {
  EXPECT_EQ(Registry::instance().find(core::kInvalidEntry), nullptr);
  EntryId id = 1;
  while (Registry::instance().find(id) != nullptr) ++id;
  EXPECT_EQ(Registry::instance().find(id), nullptr);
}

TEST(Registry, ReAddingTheSameSignatureIsANoOp) {
  const EntryId id = core::entry_id<&Probe::first>();
  const std::size_t before = Registry::instance().size();
  core::detail::register_entry<&Probe::first>();
  EXPECT_EQ(Registry::instance().size(), before);
  EXPECT_EQ(Registry::instance().find(id)->invoke,
            &core::detail::invoke_entry<&Probe::first>);
}

TEST(RegistryDeathTest, SecondNameUnderAnExistingIdAborts) {
  const EntryId id = core::entry_id<&Probe::first>();
  EXPECT_DEATH(Registry::instance().add(
                   id, core::EntryInfo{"void Other::method()",
                                       &core::detail::invoke_entry<
                                           &Probe::second>}),
               "entry id collision");
}

}  // namespace
