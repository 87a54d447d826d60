#ifndef TENCENTREC_TDSTORE_BATCH_WRITER_H_
#define TENCENTREC_TDSTORE_BATCH_WRITER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "tdstore/client.h"

namespace tencentrec::tdstore {

/// Write-behind buffer in front of a Client. Callers stage puts and
/// increments; the writer ships them as ONE grouped Client::Write call when
/// the buffer reaches `max_ops` or on an explicit Flush(). This turns the
/// per-key write storm of the count and similarity bolts into a handful of
/// per-host batches (the paper's "combine frequent operations" theme
/// applied to the storage RPC layer).
///
/// Ordering guarantees: every flush ships all staged ops, of every kind, in
/// staging order. A put coalesces into an earlier staged put of the same
/// key (last value wins — a pure overwrite needs no history) only when no
/// other op on that key was staged after it. Increments are NEVER
/// coalesced: each is applied separately in order on the server, so
/// flushing through the batch path yields bit-identical float state to
/// issuing the same point ops (delta coalescing is the combiner's job,
/// upstream of this layer).
///
/// Not thread-safe: one writer per bolt/shard, matching the
/// single-writer-per-key field-grouping contract.
class BatchWriter {
 public:
  struct Options {
    /// Auto-flush when this many ops are staged.
    size_t max_ops = 256;
  };

  using PutCallback = std::function<void(const Status&)>;
  using IncrDoubleCallback = std::function<void(const Result<double>&)>;

  BatchWriter(Client* client, Options options);

  /// Stages an overwrite. Coalesces with an earlier staged put of the same
  /// key when nothing else on the key was staged since (both callbacks
  /// still fire, with the final op's status).
  void Put(std::string_view key, std::string_view value,
           PutCallback cb = nullptr);
  void PutDouble(std::string_view key, double value, PutCallback cb = nullptr);

  /// Stages an increment; the callback receives the post-increment value
  /// once the batch ships.
  void IncrDouble(std::string_view key, double delta,
                  IncrDoubleCallback cb = nullptr);

  /// Ships everything staged. Returns the first per-op error (callbacks see
  /// every individual outcome). Idempotent when empty.
  Status Flush();

  /// Ops currently staged.
  size_t pending() const { return ops_.size(); }

  /// Value of the staged put for `key` when it is the newest op staged on
  /// that key, else nullptr. Lets a write-behind cache serve
  /// read-your-writes even after its copy of the key was evicted. The
  /// pointer is valid only until the next staging call or Flush().
  const std::string* StagedPut(const std::string& key) const;
  /// True when ANY op (put or incr) is staged for `key`.
  bool HasStaged(const std::string& key) const;

  /// First error seen by any flush since the last ClearError() — lets a
  /// caller that relies on callbacks alone detect that something went wrong
  /// without tracking every op.
  const Status& last_error() const { return last_error_; }
  void ClearError() { last_error_ = Status::OK(); }

  /// Flushes shipped so far (auto + explicit), for tests and benches.
  int64_t flushes() const { return flushes_; }

 private:
  struct StagedOp {
    WriteOp::Kind kind = WriteOp::Kind::kPut;
    std::string key;
    std::string value;  ///< kPut payload
    double delta = 0.0;  ///< kIncrDouble addend
    /// Trace active when the op was staged (0 = unsampled). Flush re-opens
    /// a tdstore.write span under it so a sampled trace still reaches the
    /// store write even though the write ships later in a batch.
    uint64_t trace_id = 0;
    PutCallback put_cb;
    IncrDoubleCallback incr_cb;
  };

  /// Appends `op` as the newest staged op on its key and applies the size
  /// policy.
  void Stage(StagedOp op);

  Client* client_;
  Options options_;  ///< sanitized copy (max_ops floors at 1)
  std::vector<StagedOp> ops_;
  /// Index into ops_ of the newest staged op per key; cleared on flush.
  std::unordered_map<std::string, size_t> last_op_;
  Status last_error_;
  int64_t flushes_ = 0;
  Counter* staged_ops_ = nullptr;
  Counter* flushed_batches_ = nullptr;
  Counter* coalesced_puts_ = nullptr;
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_BATCH_WRITER_H_
