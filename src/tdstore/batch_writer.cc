#include "tdstore/batch_writer.h"

#include <memory>

#include "common/trace.h"
#include "tdstore/codec.h"

namespace tencentrec::tdstore {

BatchWriter::BatchWriter(Client* client, Options options)
    : client_(client), options_(options) {
  if (options_.max_ops == 0) options_.max_ops = 1;
  if (MetricsEnabled()) {
    auto& reg = MetricRegistry::Default();
    staged_ops_ = reg.GetCounter("tdstore.batch_writer.staged_ops");
    flushed_batches_ = reg.GetCounter("tdstore.batch_writer.flushes");
    coalesced_puts_ = reg.GetCounter("tdstore.batch_writer.coalesced_puts");
  }
}

void BatchWriter::Stage(StagedOp op) {
  if (staged_ops_ != nullptr) staged_ops_->Add();
  op.trace_id = CurrentTraceId();
  last_op_.insert_or_assign(op.key, ops_.size());
  ops_.push_back(std::move(op));
  if (ops_.size() >= options_.max_ops) (void)Flush();
}

void BatchWriter::Put(std::string_view key, std::string_view value,
                      PutCallback cb) {
  std::string k(key);
  auto it = last_op_.find(k);
  if (it != last_op_.end() && ops_[it->second].kind == WriteOp::Kind::kPut) {
    // Last value wins; the superseded op's callback fires with the final
    // op's outcome (the overwrite made its effect unobservable anyway).
    if (staged_ops_ != nullptr) staged_ops_->Add();
    StagedOp& op = ops_[it->second];
    op.value = std::string(value);
    if (op.trace_id == 0) op.trace_id = CurrentTraceId();
    if (cb != nullptr) {
      if (op.put_cb != nullptr) {
        PutCallback prev = std::move(op.put_cb);
        op.put_cb = [prev = std::move(prev),
                     cb = std::move(cb)](const Status& s) {
          prev(s);
          cb(s);
        };
      } else {
        op.put_cb = std::move(cb);
      }
    }
    if (coalesced_puts_ != nullptr) coalesced_puts_->Add();
    return;
  }
  StagedOp op;
  op.kind = WriteOp::Kind::kPut;
  op.key = std::move(k);
  op.value = std::string(value);
  op.put_cb = std::move(cb);
  Stage(std::move(op));
}

void BatchWriter::PutDouble(std::string_view key, double value,
                            PutCallback cb) {
  Put(key, EncodeDouble(value), std::move(cb));
}

void BatchWriter::IncrDouble(std::string_view key, double delta,
                             IncrDoubleCallback cb) {
  StagedOp op;
  op.kind = WriteOp::Kind::kIncrDouble;
  op.key = std::string(key);
  op.delta = delta;
  op.incr_cb = std::move(cb);
  Stage(std::move(op));
}

const std::string* BatchWriter::StagedPut(const std::string& key) const {
  auto it = last_op_.find(key);
  if (it == last_op_.end() || ops_[it->second].kind != WriteOp::Kind::kPut) {
    return nullptr;
  }
  return &ops_[it->second].value;
}

bool BatchWriter::HasStaged(const std::string& key) const {
  return last_op_.find(key) != last_op_.end();
}

Status BatchWriter::Flush() {
  if (ops_.empty()) return Status::OK();
  std::vector<StagedOp> ops = std::move(ops_);
  ops_.clear();
  last_op_.clear();
  ++flushes_;
  if (flushed_batches_ != nullptr) flushed_batches_->Add();

  // One mixed-kind call in staging order; the ops borrow the staged bytes.
  std::vector<WriteOp> writes;
  writes.reserve(ops.size());
  for (const StagedOp& op : ops) {
    writes.push_back({0, op.kind, op.key, op.value, op.delta});
  }
  std::vector<WriteResult> results(ops.size());
  Status overall;
  {
    // Staging detached these writes from the Executes that issued them;
    // re-attach each sampled op by spanning this flush's store call under
    // its staged trace id, so a sampled trace still reaches tdstore.write.
    // Each ScopedSpan restores the trace context it replaced when it dies,
    // so the nested spans must die innermost first: a front-to-back
    // teardown would leave the thread stuck in the first op's trace, and
    // every later store op on it would be spanned (and staged) under that
    // trace.
    std::vector<std::unique_ptr<ScopedSpan>> spans;
    for (const StagedOp& op : ops) {
      if (op.trace_id != 0) {
        spans.push_back(
            std::make_unique<ScopedSpan>(op.trace_id, "tdstore.write"));
      }
    }
    overall = client_->Write(writes, results);
    while (!spans.empty()) spans.pop_back();
  }

  Status first_error;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Status& s = overall.ok() ? results[i].status : overall;
    if (!s.ok()) {
      if (first_error.ok()) first_error = s;
      if (last_error_.ok()) last_error_ = s;
    }
    if (ops[i].kind == WriteOp::Kind::kPut) {
      if (ops[i].put_cb != nullptr) ops[i].put_cb(s);
    } else if (ops[i].incr_cb != nullptr) {
      ops[i].incr_cb(s.ok() ? Result<double>(results[i].value)
                            : Result<double>(s));
    }
  }
  return first_error;
}

}  // namespace tencentrec::tdstore
