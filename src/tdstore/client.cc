#include "tdstore/client.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <type_traits>

#include "common/trace.h"

namespace tencentrec::tdstore {

Status Client::RefreshRoute() {
  auto table = cluster_->config().GetRouteTable();
  if (!table.ok()) return table.status();
  route_ = std::move(table).value();
  have_route_ = true;
  ++route_refreshes_;
  return Status::OK();
}

Status Client::EnsureRoute() {
  if (have_route_) return Status::OK();
  return RefreshRoute();
}

template <typename Op>
auto Client::WithHost(std::string_view key, Op op) -> decltype(op(nullptr, 0)) {
  Status ensure = EnsureRoute();
  if (!ensure.ok()) return ensure;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const size_t instance =
        HashString(key) % route_.placements.size();
    const InstancePlacement& p = route_.placements[instance];
    DataServer* host = cluster_->data_server(p.host_server);
    if (host == nullptr) return Status::Internal("route names bad server");
    auto result = op(host, p.instance_id);
    if (result.ok() || !result.status().IsUnavailable() || attempt == 1) {
      return result;
    }
    Status refresh = RefreshRoute();
    if (!refresh.ok()) return refresh;
  }
  return Status::Internal("unreachable");
}

namespace {
/// Adapts Status-returning ops to the Result-shaped WithHost contract.
struct StatusResult {
  Status status_;
  StatusResult(Status s) : status_(std::move(s)) {}  // NOLINT(implicit)
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
};

/// Runs one op as a one-op Write; a whole-call failure becomes its status.
WriteResult WriteOne(DataServer* host, const WriteOp& op) {
  WriteResult r;
  Status s = host->Write({&op, 1}, {&r, 1});
  if (!s.ok()) r.status = std::move(s);
  return r;
}

}  // namespace

// Store ops run under the caller's tuple context (published by the bolt's
// ScopedSpan), so sampled tuples get a nested store-side span with no
// signature change here. Each point op is a one-op server call.
Status Client::Put(std::string_view key, std::string_view value) {
  ScopedLatencyTimer timer(write_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.write");
  if (point_ops_ != nullptr) point_ops_->Add();
  auto r = WithHost(key, [&](DataServer* host, int instance) -> StatusResult {
    return WriteOne(host, WriteOp::Put(key, value, instance)).status;
  });
  CountOp(r.status());
  return r.status();
}

Result<std::string> Client::Get(std::string_view key) {
  ScopedLatencyTimer timer(read_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.read");
  if (point_ops_ != nullptr) point_ops_->Add();
  auto r = WithHost(key,
                    [&](DataServer* host, int instance) -> Result<std::string> {
                      const ReadOp op{instance, key};
                      Result<std::string> out(Status::Internal("unset"));
                      Status s = host->MultiGet({&op, 1}, {&out, 1});
                      if (!s.ok()) return s;
                      return out;
                    });
  CountOp(r.status());
  return r;
}

Status Client::Delete(std::string_view key) {
  ScopedLatencyTimer timer(write_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.write");
  if (point_ops_ != nullptr) point_ops_->Add();
  auto r = WithHost(key, [&](DataServer* host, int instance) -> StatusResult {
    return WriteOne(host, WriteOp::Delete(key, instance)).status;
  });
  CountOp(r.status());
  return r.status();
}

Result<double> Client::IncrDouble(std::string_view key, double delta) {
  ScopedLatencyTimer timer(write_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.write");
  if (point_ops_ != nullptr) point_ops_->Add();
  auto r = WithHost(key, [&](DataServer* host, int instance) -> Result<double> {
    WriteResult w = WriteOne(host, WriteOp::IncrDouble(key, delta, instance));
    if (!w.status.ok()) return w.status;
    return w.value;
  });
  CountOp(r.status());
  return r;
}

Result<int64_t> Client::IncrInt64(std::string_view key, int64_t delta) {
  ScopedLatencyTimer timer(write_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.write");
  if (point_ops_ != nullptr) point_ops_->Add();
  auto r =
      WithHost(key, [&](DataServer* host, int instance) -> Result<int64_t> {
        WriteResult w =
            WriteOne(host, WriteOp::IncrInt64(key, delta, instance));
        if (!w.status.ok()) return w.status;
        return w.int_value;
      });
  CountOp(r.status());
  return r;
}

Result<double> Client::GetDouble(std::string_view key, double fallback) {
  auto raw = Get(key);
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) return fallback;
    return raw.status();
  }
  return DecodeDouble(*raw);
}

Result<int64_t> Client::GetInt64(std::string_view key, int64_t fallback) {
  auto raw = Get(key);
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) return fallback;
    return raw.status();
  }
  return DecodeInt64(*raw);
}

namespace {
// GroupedDispatch stitches per-op outcomes of two shapes (WriteResult for
// writes, Result<std::string> for reads); these give it a uniform view.
const Status& StatusOf(const WriteResult& r) { return r.status; }
const Status& StatusOf(const Result<std::string>& r) { return r.status(); }
void SetStatus(WriteResult& r, const Status& s) { r.status = s; }
void SetStatus(Result<std::string>& r, const Status& s) { r = s; }
/// Placeholder for a slot no server has answered yet.
template <typename Out>
Out Unset() {
  if constexpr (std::is_same_v<Out, WriteResult>) {
    return WriteResult{Status::Internal("unset")};
  } else {
    return Out(Status::Internal("unset"));
  }
}
}  // namespace

template <typename Op, typename Out, typename Dispatch>
Status Client::GroupedDispatch(std::span<const Op> ops, std::span<Out> out,
                               Dispatch dispatch) {
  TR_RETURN_IF_ERROR(EnsureRoute());
  const size_t n = ops.size();
  if (batch_ops_ != nullptr) batch_ops_->Add();
  if (batch_keys_ != nullptr) batch_keys_->Add(n);
  std::vector<size_t> pending(n);
  std::iota(pending.begin(), pending.end(), 0);
  for (int attempt = 0; attempt < 2 && !pending.empty(); ++attempt) {
    if (attempt > 0) TR_RETURN_IF_ERROR(RefreshRoute());
    // Group the still-pending inputs by current host. Within a host, items
    // are ordered by (instance_id, input index): same-instance runs stay
    // contiguous for the server's one-lock-per-run processing, and the
    // stable sort keeps same-key ops in input order (the bit-identical
    // increment guarantee rides on this).
    std::map<int, std::vector<std::pair<int, size_t>>> by_host;
    for (size_t idx : pending) {
      const size_t slot = HashString(ops[idx].key) % route_.placements.size();
      const InstancePlacement& p = route_.placements[slot];
      by_host[p.host_server].emplace_back(p.instance_id, idx);
    }
    std::vector<size_t> failed;
    for (auto& [host_id, entries] : by_host) {
      std::stable_sort(
          entries.begin(), entries.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      DataServer* host = cluster_->data_server(host_id);
      if (host == nullptr) return Status::Internal("route names bad server");
      // Ops borrow the caller's key/value bytes, so re-addressing one to its
      // instance copies no payload.
      std::vector<Op> items;
      items.reserve(entries.size());
      for (const auto& [instance_id, idx] : entries) {
        items.push_back(ops[idx]);
        items.back().instance_id = instance_id;
      }
      if (host_batches_ != nullptr) host_batches_->Add();
      std::vector<Out> batch_out(entries.size(), Unset<Out>());
      Status s = dispatch(host, std::span<const Op>(items),
                          std::span<Out>(batch_out));
      if (!s.ok()) {
        // Whole-server failure (down): every item of this sub-batch gets the
        // verdict, and — if retryable — a spot in the next attempt.
        for (const auto& [instance_id, idx] : entries) {
          SetStatus(out[idx], s);
          if (s.IsUnavailable() && attempt == 0) failed.push_back(idx);
        }
        continue;
      }
      for (size_t i = 0; i < entries.size(); ++i) {
        const size_t idx = entries[i].second;
        out[idx] = std::move(batch_out[i]);
        if (StatusOf(out[idx]).IsUnavailable() && attempt == 0) {
          failed.push_back(idx);
        }
      }
    }
    std::sort(failed.begin(), failed.end());
    pending = std::move(failed);
  }
  // Final per-key verdicts feed the error-rate instruments once, after
  // retries have had their say.
  for (const Out& o : out) CountOp(StatusOf(o));
  return Status::OK();
}

Status Client::MultiGetBatch(const std::vector<std::string>& keys,
                             std::vector<Result<std::string>>* out) {
  ScopedLatencyTimer timer(batch_read_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.batch_read");
  out->assign(keys.size(), Unset<Result<std::string>>());
  std::vector<ReadOp> ops(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) ops[i].key = keys[i];
  return GroupedDispatch(
      std::span<const ReadOp>(ops), std::span<Result<std::string>>(*out),
      [](DataServer* host, std::span<const ReadOp> items,
         std::span<Result<std::string>> batch_out) {
        return host->MultiGet(items, batch_out);
      });
}

Status Client::Write(std::span<const WriteOp> ops,
                     std::span<WriteResult> out) {
  ScopedLatencyTimer timer(batch_write_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.batch_write");
  return GroupedDispatch(ops, out,
                         [](DataServer* host, std::span<const WriteOp> items,
                            std::span<WriteResult> batch_out) {
                           return host->Write(items, batch_out);
                         });
}

Status Client::MultiGetDouble(const std::vector<std::string>& keys,
                              double fallback,
                              std::vector<Result<double>>* out) {
  std::vector<Result<std::string>> raw;
  TR_RETURN_IF_ERROR(MultiGetBatch(keys, &raw));
  out->clear();
  out->reserve(raw.size());
  for (auto& r : raw) {
    if (r.ok()) {
      out->push_back(DecodeDouble(*r));
    } else if (r.status().IsNotFound()) {
      out->push_back(fallback);
    } else {
      out->push_back(r.status());
    }
  }
  return Status::OK();
}

Status Client::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visitor) {
  TR_RETURN_IF_ERROR(EnsureRoute());
  bool keep_going = true;
  // Copy: RefreshRoute() inside the loop would invalidate iterators into
  // route_.placements.
  const std::vector<InstancePlacement> placements = route_.placements;
  for (const auto& p : placements) {
    if (!keep_going) break;
    DataServer* host = cluster_->data_server(p.host_server);
    if (host == nullptr) return Status::Internal("route names bad server");
    Status s = host->ScanPrefix(p.instance_id, prefix,
                                [&](std::string_view k, std::string_view v) {
                                  keep_going = visitor(k, v);
                                  return keep_going;
                                });
    if (s.IsUnavailable()) {
      TR_RETURN_IF_ERROR(RefreshRoute());
      // Re-find this instance's placement by instance_id — a route table is
      // not necessarily ordered so that placements[i].instance_id == i
      // (indexing by instance_id here used to retry against the wrong
      // server's engine under permuted tables).
      const InstancePlacement* refreshed = nullptr;
      for (const auto& q : route_.placements) {
        if (q.instance_id == p.instance_id) {
          refreshed = &q;
          break;
        }
      }
      if (refreshed == nullptr) {
        return Status::Internal("instance missing from refreshed route");
      }
      DataServer* retry_host = cluster_->data_server(refreshed->host_server);
      if (retry_host == nullptr) {
        return Status::Internal("route names bad server");
      }
      s = retry_host->ScanPrefix(p.instance_id, prefix,
                                 [&](std::string_view k, std::string_view v) {
                                   keep_going = visitor(k, v);
                                   return keep_going;
                                 });
    }
    TR_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

}  // namespace tencentrec::tdstore
