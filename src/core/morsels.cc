#include "core/morsels.h"

#include "common/stopwatch.h"
#include "obs/obs.h"

namespace skalla {

void RunMorsels(ThreadPool* pool, size_t n, const EvalContext& context,
                const std::function<void(size_t)>& fn) {
  EvalProfile* profile = context.profile;
  auto timed = [&fn, &context, profile](size_t m) {
    obs::QueryIdScope query_scope(context.query_id != 0
                                      ? context.query_id
                                      : obs::CurrentQueryId());
    SKALLA_TRACE_SPAN_UNDER(morsel_span, "site.eval.morsel", "site",
                            context.trace_parent_span);
    SKALLA_SPAN_ATTR(morsel_span, "morsel", static_cast<uint64_t>(m));
    Stopwatch morsel_watch;
    fn(m);
    if (profile != nullptr) {
      profile->morsel_us.fetch_add(
          static_cast<uint64_t>(morsel_watch.ElapsedMicros()),
          std::memory_order_relaxed);
    }
    SKALLA_HISTOGRAM_RECORD("skalla.site.morsel_us",
                            morsel_watch.ElapsedMicros());
  };
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, timed);
  } else {
    for (size_t m = 0; m < n; ++m) timed(m);
  }
}

void RecordPins(const PinCounts& counts, const EvalContext& context) {
  EvalProfile* profile = context.profile;
  if (profile == nullptr) return;
  profile->pages_pinned.fetch_add(counts.pages, std::memory_order_relaxed);
  profile->pages_missed.fetch_add(counts.misses, std::memory_order_relaxed);
  profile->page_bytes_loaded.fetch_add(counts.miss_bytes,
                                       std::memory_order_relaxed);
}

Result<PinnedChunk> PinForEval(const DataProvider& detail, size_t chunk,
                               const std::vector<size_t>& columns,
                               const EvalContext& context) {
  Result<PinnedChunk> pin = detail.Pin(chunk, columns);
  if (pin.ok()) RecordPins(pin->counts(), context);
  return pin;
}

Result<PinnedChunk> PinForEval(const DataProvider& detail, size_t chunk,
                               const EvalContext& context) {
  Result<PinnedChunk> pin = detail.Pin(chunk);
  if (pin.ok()) RecordPins(pin->counts(), context);
  return pin;
}

}  // namespace skalla
