#include "core/registry.hpp"

namespace mdo::core {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(EntryId id, EntryInfo info) {
  MDO_CHECK(id >= 0 && info.invoke != nullptr);
  auto it = lower_bound(id);
  if (it != entries_.end() && it->id == id) {
    MDO_CHECK_MSG(it->info.name == info.name,
                  "entry id collision: two entry-method signatures hash to "
                  "one id");
    return;
  }
  entries_.insert(it, Slot{id, info});
}

}  // namespace mdo::core
