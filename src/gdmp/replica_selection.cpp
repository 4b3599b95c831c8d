#include "gdmp/replica_selection.h"

namespace gdmp::core {

SelectorFn first_replica_selector() {
  return [](const std::vector<Uri>&) { return std::size_t{0}; };
}

}  // namespace gdmp::core
