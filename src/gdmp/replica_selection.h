// Replica selection hook.
//
// "This information can then be used as a basis for replica selection
// based on cost functions, which is part of planned future work. (See
// [VTF01] for some early ideas.)" — §4.2. GDMP 2.0 shipped with trivial
// selection; this module provides that baseline. The live cost-based
// selector fed by observed transfer history is sched::CostAwareSelector
// (sched/cost_selector.h).
#pragma once

#include <functional>
#include <vector>

#include "common/uri.h"

namespace gdmp::core {

/// Picks a source replica (an index into the candidate URLs) for
/// GdmpServer::replicate. Cost-function based selection is the paper's
/// stated future work [VTF01]; the hook makes it pluggable. A chooser may
/// refuse the request by returning an error (e.g. every candidate's site
/// is at its concurrency cap): replicate() then completes with that status
/// without counting a replication failure, and the caller decides what to
/// do next.
using SelectorFn =
    std::function<Result<std::size_t>(const std::vector<Uri>&)>;

/// Always the first catalog entry (GDMP 2.0 behaviour).
SelectorFn first_replica_selector();

}  // namespace gdmp::core
