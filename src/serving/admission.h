#ifndef DDUP_SERVING_ADMISSION_H_
#define DDUP_SERVING_ADMISSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace ddup::serving {

// ---------------------------------------------------------------------------
// Engine-side admission control (DESIGN.md §15). With
// EngineConfig::max_backlog_batches > 0 the api::Engine bounds each table's
// queued micro-batch updates and consults an AdmissionPolicy whenever an
// Ingest finds the backlog at the bound. The policy decides what happens to
// the overload — the engine supplies the mechanism (the bound, the wait
// queue, the coalescing group tasks), the policy the decision. This
// replaces the PR 5 caller-side pattern of polling
// TableReport::backlog_batches and backing off by hand; that field is now
// advisory.
//
// Registered policies:
//
//   "block" (default): the ingesting caller waits until a worker drains the
//     backlog below the bound, then enqueues. No data is dropped and no
//     error surfaces; overload turns into caller latency (the classic
//     bounded-queue producer stall). Ordering is unchanged.
//
//   "shed": a call arriving at a saturated backlog is refused outright with
//     a typed `[admission:shed]` ResourceExhausted Status before any of its
//     rows are buffered — the caller retries later (HTTP-429 semantics).
//     Admission is per call: a call admitted below the bound may enqueue
//     several micro-batches (the bound is a high-watermark, not a hard cap);
//     once it is reached mid-call the remaining full batches stay in the
//     accumulator for a later admitted call to enqueue.
//
//   "coalesce": rows are always admitted into the accumulator; when the
//     backlog is at the bound nothing new is enqueued, and once a slot
//     frees the next Ingest/Flush merges ALL buffered full micro-batches
//     into one strand task. The task still runs the DDUp loop once per
//     micro-batch — models stay byte-identical to unbatched ingest — but
//     queue entries, per-task overhead and snapshot publishes amortize
//     across the group (one publish per group). Overload adaptively grows
//     the group size instead of growing the queue.
// ---------------------------------------------------------------------------

// What the engine does with work that found the backlog at the bound.
enum class AdmissionAction {
  kAdmit,     // enqueue anyway (policy overrides the bound)
  kWait,      // block the caller until the backlog drains below the bound
  kShed,      // refuse the call with a typed [admission:shed] Status
  kCoalesce,  // keep the rows buffered; merge into one group task later
};

// One admission decision's inputs. `backlog_batches >= bound` always holds
// when Admit is called — the engine only consults the policy on overload.
struct AdmissionContext {
  std::string table;
  int64_t backlog_batches = 0;  // micro-batches queued or running
  int64_t bound = 0;            // EngineConfig::max_backlog_batches
  int64_t buffered_batches = 0;  // full micro-batches waiting to enqueue
};

// Stateless process-lifetime singletons, like the join combiners. A policy
// sees every overload decision and the group-size question; anything
// load-dependent (shed only above 2x the bound, coalesce with a group
// cap...) slots in as a new policy without engine changes.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  virtual std::string name() const = 0;

  // Decision for an overloaded table. Called with the engine's table mutex
  // held — must not block or call back into the engine.
  virtual AdmissionAction Admit(const AdmissionContext& ctx) const = 0;

  // Micro-batches to merge into one strand task when `available` full
  // batches are buffered and the backlog has room. 1 = one task per
  // micro-batch (the PR 5 behavior, kept by block/shed); coalesce returns
  // `available`. Clamped to [1, available] by the engine.
  virtual int64_t GroupSize(int64_t available) const {
    (void)available;
    return 1;
  }
};

// nullptr for an unknown name.
const AdmissionPolicy* FindAdmissionPolicy(const std::string& name);
// Sorted names of every registered policy.
std::vector<std::string> RegisteredAdmissionPolicies();
inline constexpr const char* kDefaultAdmissionPolicy = "block";

// The typed shed refusal: StatusCode::kResourceExhausted with the stable
// machine-readable "[admission:shed]" message prefix, so callers can branch
// on the cause without string-matching prose (same pattern as the router's
// "[plan:<tag>]" errors).
Status MakeShedError(const std::string& table, int64_t backlog, int64_t bound);
// True exactly for Statuses minted by MakeShedError (possibly re-wrapped
// with a prefix by a batch layer).
bool IsAdmissionShed(const Status& status);

}  // namespace ddup::serving

#endif  // DDUP_SERVING_ADMISSION_H_
