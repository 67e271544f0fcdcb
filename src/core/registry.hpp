#pragma once
// Entry-method registry. Charm++ gives every process the same
// entry-method table before the program starts (its translator generates
// it); we achieve the same thing with templates. An entry id is
// content-addressed: entry_id<&T::m>() is a compile-time 31-bit FNV-1a
// hash of the method's signature (detail::method_pretty_name). Naming it
// anywhere in the program instantiates detail::kRegistered<&T::m>, an
// inline variable whose initializer adds a type-erased invoker (unmarshal
// the parameter pack, call the member) to the table during static
// initialization. So every entry method in the binary is registered
// before main, in whichever order, in every process that runs the binary:
// Sim/Thread PEs, forked ProcessMachine children, or independently
// launched processes built from the same source with the same compiler
// all agree on every id without exchanging anything.
//
// After main the table is read-only: find() takes no lock and never
// allocates. An id that arrives off the wire is only ever looked up,
// never turned into a pointer; one this binary did not register is
// dropped by the runtime (rt.unknown_entry). Two signatures that hash
// to one id abort in add() — a program bug, caught before main.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/pup.hpp"

namespace mdo::core {

class Chare;

struct EntryInfo {
  using Invoker = void (*)(Chare& element, std::span<const std::byte> args);
  std::string_view name;  ///< the signature the id hashes; static storage
  Invoker invoke = nullptr;
};

class Registry {
 public:
  static Registry& instance();

  /// Static initialization only (detail::kRegistered). Adding the same
  /// name again is a no-op; a different name under an existing id is a
  /// hash collision and aborts.
  void add(EntryId id, EntryInfo info);

  /// The entry registered under `id`, or nullptr.
  const EntryInfo* find(EntryId id) const {
    auto it = lower_bound(id);
    return it != entries_.end() && it->id == id ? &it->info : nullptr;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Slot {
    EntryId id;
    EntryInfo info;
  };
  std::vector<Slot>::const_iterator lower_bound(EntryId id) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const Slot& slot, EntryId key) { return slot.id < key; });
  }

  std::vector<Slot> entries_;  ///< sorted by id
};

namespace detail {

template <class M>
struct MemberFnTraits;

template <class T, class R, class... Args>
struct MemberFnTraits<R (T::*)(Args...)> {
  using Class = T;
  using ArgsTuple = std::tuple<std::decay_t<Args>...>;
};

template <class Tuple>
Tuple unmarshal_into(std::span<const std::byte> data) {
  Pup p = Pup::unpacker(data);
  Tuple out{};
  std::apply(
      [&p](auto&... elems) {
        (void)std::initializer_list<int>{((p | elems), 0)...};
      },
      out);
  MDO_CHECK_MSG(p.bytes_remaining() == 0, "trailing bytes after entry unmarshal");
  return out;
}

template <auto Method>
constexpr std::string_view method_pretty_name() {
  return __PRETTY_FUNCTION__;
}

/// 31-bit FNV-1a: non-negative, so never kInvalidEntry.
constexpr EntryId signature_hash(std::string_view signature) {
  std::uint32_t h = 2166136261u;
  for (char c : signature) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return static_cast<EntryId>(h & 0x7fffffffu);
}

/// A constexpr variable, so the hash is always folded at compile time
/// (a constexpr function called at run time need not be).
template <auto Method>
inline constexpr EntryId kEntryId =
    signature_hash(method_pretty_name<Method>());

template <auto Method>
void invoke_entry(Chare& element, std::span<const std::byte> bytes) {
  using Traits = MemberFnTraits<decltype(Method)>;
  auto args = unmarshal_into<typename Traits::ArgsTuple>(bytes);
  auto& obj = static_cast<typename Traits::Class&>(element);
  std::apply(
      [&obj](auto&&... unpacked) { (obj.*Method)(std::move(unpacked)...); },
      args);
}

template <auto Method>
bool register_entry() {
  Registry::instance().add(
      kEntryId<Method>,
      EntryInfo{method_pretty_name<Method>(), &invoke_entry<Method>});
  return true;
}

/// Dynamic-initialized before main for every Method that entry_id names.
template <auto Method>
inline const bool kRegistered = register_entry<Method>();

}  // namespace detail

/// Stable id of an entry method: the hash of its signature.
template <auto Method>
constexpr EntryId entry_id() {
  (void)&detail::kRegistered<Method>;  // odr-use: instantiate registration
  return detail::kEntryId<Method>;
}

}  // namespace mdo::core
