// Scope: one sketch the service answers from, behind one interface.
// SketchServer keeps one per QueryScope in a table (see the support matrix
// in service/server.h). A base method answers Status::kUnsupported, so a
// scope implements exactly what its sketch can do. Scopes are driven by
// the server's single serving thread.

#ifndef DSKETCH_SERVICE_SCOPE_H_
#define DSKETCH_SERVICE_SCOPE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "query/attribute_table.h"
#include "query/frozen_source.h"
#include "query/predicate.h"
#include "query/sketch_source.h"
#include "service/protocol.h"

namespace dsketch {

struct SketchServerOptions;

/// Number of QueryScope values (the size of the server's scope table).
inline constexpr size_t kNumQueryScopes =
    static_cast<size_t>(QueryScope::kWindow) + 1;

/// The weighted scope's domain: its total weight (rows ingested plus
/// absorbed totals) stays <= 2^500. Any merge of its parts then sums to a
/// finite double, and so does eq. 5's variance, MinWeight()^2 * C_S,
/// which is at most the total squared.
inline constexpr double kMaxWeightedTotal = 0x1p500;

/// One addressable sketch. Predicates arrive validated against the
/// attribute table; responses are filled only on kOk.
class Scope {
 public:
  Scope() = default;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  virtual ~Scope() = default;

  virtual Status Ingest(const IngestBatchRequest&) {
    return Status::kUnsupported;
  }
  virtual Status Sum(const QuerySumRequest&, const Predicate&,
                     QuerySumResponse*) {
    return Status::kUnsupported;
  }
  virtual Status TopK(const QueryTopKRequest&, QueryTopKResponse*) {
    return Status::kUnsupported;
  }
  /// Groups come back sorted by key.
  virtual Status GroupBy(const QueryGroupByRequest&, const Predicate&,
                         QueryGroupByResponse*) {
    return Status::kUnsupported;
  }
  /// `frozen` asks for the frozen image; the format defaults to kStream.
  virtual Status Snapshot(bool /*frozen*/, std::string* /*blob*/,
                          SnapshotFormat*) {
    return Status::kUnsupported;
  }
  /// kBadState when the blob decodes as no sketch this scope absorbs.
  virtual Status Restore(std::string_view /*blob*/,
                         uint64_t* /*num_absorbed*/) {
    return Status::kUnsupported;
  }
  /// Writes this scope's STATS fields (rows, totals, epoch).
  virtual void FillStats(StatsResponse*) {}
  /// Advances the scope's epoch by `ticks` wall-clock intervals.
  virtual void TickEpochs(uint64_t /*ticks*/) {}
  /// The unit-row source behind a writer's counts scope, else nullptr.
  virtual ShardedSketchSource* source() { return nullptr; }
};

/// Builds a writer scope and its fleet; `attrs` may be null.
using ScopeFactory = std::unique_ptr<Scope> (*)(
    const SketchServerOptions& options, const AttributeTable* attrs);

/// A writer's scopes, indexed by QueryScope: counts, weighted, window.
extern const std::array<ScopeFactory, kNumQueryScopes> kWriterScopes;

/// A replica's counts scope: reads straight off `image` (which must
/// outlive it), and SNAPSHOT answers the image itself.
std::unique_ptr<Scope> MakeFrozenScope(FrozenSketchSource* image,
                                       const AttributeTable* attrs);

}  // namespace dsketch

#endif  // DSKETCH_SERVICE_SCOPE_H_
