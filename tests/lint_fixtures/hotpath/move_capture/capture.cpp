// find_functions precision fixture: `std::move(x)` followed by `{` is a
// call inside a lambda capture or a member-init list, not the definition
// of a function named `move`. relay() is hot and calls std::move; were
// either `move(...)` below taken for a definition, the constructor body or
// the unscheduled lambda would join the hot closure and their allocations
// would be reported.
#include <functional>
#include <utility>
#include <vector>

namespace fx {

struct Holder {
  explicit Holder(std::function<void()> cb) : cb_(std::move(cb)) {
    log_.push_back(1);  // cold: constructor body
  }
  std::function<void()> cb_;
  std::vector<int> log_;
};

std::function<void()> wrap(std::vector<int> rows) {
  return [rows = std::move(rows)]() mutable {
    rows.push_back(0);  // cold: a lambda nobody schedules
  };
}

// gdmp-lint: hot-path — fixture relay: forwards one row per event
int relay(int row) { return std::move(row) + 1; }

}  // namespace fx
