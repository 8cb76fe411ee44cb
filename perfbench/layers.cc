#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "crypto/dpf.h"
#include "procs.h"
#include "stats.h"
#include "storage/engine.h"
#include "storage/kernels.h"
#include "storage/wire.h"
#include "util/random.h"

namespace perfbench {

namespace {

using dpstore::StorageRequest;

/// Replays stop after this many exchanges, or sooner once at least
/// kMinReplayed ran and kReplayBudgetNs elapsed (a DPF eval exchange
/// costs a whole-domain expansion and scan).
constexpr size_t kMaxReplayed = 2000;
constexpr size_t kMinReplayed = 100;
constexpr int64_t kReplayBudgetNs = 15'000'000'000;
constexpr int kWirePasses = 5;
constexpr int kDpfGenCalls = 200;
constexpr int kDpfEvalCalls = 3;
constexpr int kScanCalls = 5;
constexpr uint8_t kPirDepth = 20;
constexpr size_t kScanBlockSize = 64;
/// The sum check's tolerance on the mean operation latency.
constexpr double kSumTolerancePct = 5.0;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Quantile `bp` in the samples' unit scaled by `scale`; NaN when refused
/// (the metric is then reported as missing by the caller's check).
double Q(const Summary& s, uint32_t bp, double scale) {
  const std::optional<double> q = s.Quantile(bp);
  return q.has_value() ? *q * scale : std::nan("");
}

struct SpanStats {
  std::vector<double> self_ns;
  std::vector<double> submit_ns;
  std::vector<double> wait_ns;
};

/// Splits every traced operation into its scheme self time (the op span
/// minus the union of its child spans) and its transport child spans.
SpanStats AnalyzeSpans(const std::vector<const ClientTrace*>& traces) {
  SpanStats out;
  for (const ClientTrace* trace : traces) {
    const std::vector<Span>& spans = trace->spans();
    // Children of op span i (1-based), as intervals.
    std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : spans) {
      if (s.parent == 0) continue;
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      (s.kind == SpanKind::kSubmit ? out.submit_ns : out.wait_ns).push_back(d);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& op = spans[i];
      if (op.kind != SpanKind::kOp) continue;
      int64_t covered = 0;
      int64_t reach = op.start_ns;
      auto it = children.find(static_cast<uint32_t>(i + 1));
      if (it != children.end()) {
        std::sort(it->second.begin(), it->second.end());
        for (const auto& [start, end] : it->second) {
          const int64_t from = std::max(start, reach);
          if (end > from) covered += end - from;
          reach = std::max(reach, end);
        }
      }
      out.self_ns.push_back(
          static_cast<double>(op.end_ns - op.start_ns - covered));
    }
  }
  return out;
}

std::vector<const RecordedExchange*> Recorded(
    const std::vector<const ClientTrace*>& traces) {
  std::vector<const RecordedExchange*> all;
  for (const ClientTrace* trace : traces) {
    for (const RecordedExchange& ex : trace->recorded()) all.push_back(&ex);
  }
  return all;
}

/// The bytes DecodeFrame takes: the frame without its u32 length prefix.
std::vector<uint8_t> FrameBody(const dpstore::wire::EncodedFrame& frame) {
  std::vector<uint8_t> bytes(frame.head.begin() + 4, frame.head.end());
  bytes.insert(bytes.end(), frame.body.begin(), frame.body.end());
  return bytes;
}

struct WireTimes {
  double encode_us = 0.0;
  double decode_us = 0.0;
  uint64_t bytes = 0;
};

/// Encodes and decodes every recorded request and reply, a few passes,
/// and returns the median per-exchange time of each direction.
WireTimes ReplayWire(const std::vector<const RecordedExchange*>& recorded,
                     bool* decode_ok) {
  WireTimes out;
  if (recorded.empty()) return out;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  const double count = static_cast<double>(recorded.size());
  for (int pass = 0; pass < kWirePasses; ++pass) {
    std::vector<dpstore::wire::EncodedFrame> frames;
    frames.reserve(2 * recorded.size());
    const int64_t start = NowNs();
    for (size_t i = 0; i < recorded.size(); ++i) {
      frames.push_back(dpstore::wire::EncodeRequest(recorded[i]->request, i));
      frames.push_back(
          dpstore::wire::EncodeReplyBlocks(recorded[i]->reply, i));
    }
    encode_us.push_back(static_cast<double>(NowNs() - start) / 1e3 / count);

    std::vector<std::vector<uint8_t>> bodies;
    bodies.reserve(frames.size());
    out.bytes = 0;
    for (const auto& frame : frames) {
      bodies.push_back(FrameBody(frame));
      out.bytes += bodies.back().size() + 4;
    }
    const int64_t decode_start = NowNs();
    for (const auto& body : bodies) {
      if (!dpstore::wire::DecodeFrame(dpstore::BlockView(body)).ok()) {
        *decode_ok = false;
      }
    }
    decode_us.push_back(static_cast<double>(NowNs() - decode_start) / 1e3 /
                        count);
  }
  out.encode_us = Median(encode_us);
  out.decode_us = Median(decode_us);
  return out;
}

struct EngineTimes {
  std::vector<double> execute_ns;
  std::vector<double> sync_ns;
  double blocks_per_exchange = 0.0;
  bool ok = true;
};

/// Replays the recorded exchanges through a StorageEngine with the
/// servers' thread count and durability, on namespaces of the recorded
/// geometry. Uploads are journaled without syncing, and SyncJournal is
/// timed after each one, as a server worker does per upload batch (with
/// no uploads recorded, after every exchange).
EngineTimes ReplayEngine(const std::vector<const RecordedExchange*>& recorded,
                         const LayerInputs& inputs) {
  EngineTimes out;
  if (recorded.empty()) return out;
  dpstore::StorageEngineOptions options;
  options.num_threads = inputs.server_threads;
  options.persist.data_dir = inputs.replay_data_dir;
  options.persist.sync_uploads = false;
  options.persist.checkpoint_on_close = false;
  dpstore::StatusOr<std::shared_ptr<dpstore::StorageEngine>> opened =
      dpstore::StorageEngine::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: replay engine: %s\n",
                 opened.status().ToString().c_str());
    out.ok = false;
    return out;
  }
  std::shared_ptr<dpstore::StorageEngine> engine = *opened;
  std::map<std::pair<uint64_t, size_t>, dpstore::NamespaceHandle> namespaces;
  bool any_upload = false;
  for (const RecordedExchange* ex : recorded) {
    any_upload |= ex->request.op == StorageRequest::Op::kUpload;
    const auto geometry = std::make_pair(ex->n, ex->block_size);
    if (namespaces.count(geometry) != 0) continue;
    dpstore::StatusOr<dpstore::NamespaceHandle> handle = engine->Attach(
        namespaces.size() + 1, ex->n, ex->block_size,
        dpstore::AttachMode::kAttachOrCreate);
    if (!handle.ok()) {
      std::fprintf(stderr, "perfbench: replay attach: %s\n",
                   handle.status().ToString().c_str());
      out.ok = false;
      return out;
    }
    namespaces.emplace(geometry, std::move(*handle));
  }

  const dpstore::StorageEngineCounters before = engine->Counters();
  const int64_t start = NowNs();
  for (size_t i = 0; i < kMaxReplayed; ++i) {
    if (i >= kMinReplayed && NowNs() - start > kReplayBudgetNs) break;
    const RecordedExchange& ex = *recorded[i % recorded.size()];
    const dpstore::NamespaceHandle& ns =
        namespaces.at(std::make_pair(ex.n, ex.block_size));
    const int64_t t0 = NowNs();
    const bool executed = engine->ExecuteBatch(0, ns, ex.request).ok();
    const int64_t t1 = NowNs();
    out.ok &= executed;
    out.execute_ns.push_back(static_cast<double>(t1 - t0));
    if (!any_upload || ex.request.op == StorageRequest::Op::kUpload) {
      out.ok &= engine->SyncJournal().ok();
      out.sync_ns.push_back(static_cast<double>(NowNs() - t1));
    }
  }
  const dpstore::StorageEngineCounters after = engine->Counters();
  out.blocks_per_exchange =
      Ratio(static_cast<double>(after.blocks_moved - before.blocks_moved),
            static_cast<double>(after.exchanges - before.exchanges));
  namespaces.clear();
  engine.reset();
  if (!inputs.replay_data_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(inputs.replay_data_dir, ignored);
  }
  return out;
}

struct CryptoTimes {
  double gen_us = 0.0;
  double eval_full_ms = 0.0;
  double scan_ms = 0.0;
};

/// Direct calls into crypto (DpfGen, DpfEvalFull at depth 20) and the
/// kernels (SelectXorScan over a 2^20 x 64 B arena), medians of a few.
CryptoTimes MeasureCryptoAndKernels(bool* ok) {
  CryptoTimes out;
  dpstore::Rng rng(20);
  const uint64_t domain = uint64_t{1} << kPirDepth;
  std::vector<double> gen_us;
  dpstore::crypto::DpfKeyPair pair;
  for (int i = 0; i < kDpfGenCalls; ++i) {
    const uint64_t alpha = rng.Uniform(domain);
    const int64_t t0 = NowNs();
    dpstore::StatusOr<dpstore::crypto::DpfKeyPair> made =
        dpstore::crypto::DpfGen(alpha, kPirDepth);
    gen_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!made.ok()) {
      *ok = false;
      return out;
    }
    pair = std::move(*made);
  }
  out.gen_us = Median(gen_us);

  std::vector<double> eval_ms;
  std::vector<uint64_t> bits;
  for (int i = 0; i < kDpfEvalCalls; ++i) {
    const int64_t t0 = NowNs();
    bits = dpstore::crypto::DpfEvalFull(pair.key0);
    eval_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  out.eval_full_ms = Median(eval_ms);

  std::vector<uint8_t> arena(domain * kScanBlockSize);
  for (size_t i = 0; i < arena.size(); i += 8) {
    const uint64_t word = rng.NextUint64();
    std::copy_n(reinterpret_cast<const uint8_t*>(&word), 8, &arena[i]);
  }
  std::vector<uint8_t> answer(kScanBlockSize);
  std::vector<double> scan_ms;
  for (int i = 0; i < kScanCalls; ++i) {
    const int64_t t0 = NowNs();
    dpstore::kernels::SelectXorScan(answer.data(), arena.data(), domain,
                                    kScanBlockSize, bits.data(), 0);
    scan_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  out.scan_ms = Median(scan_ms);
  return out;
}

}  // namespace

ServerCounters ParseServerLines(const std::string& drained,
                                const std::string& durability) {
  ServerCounters c;
  c.exchanges = FieldAfter(drained, "exchanges=");
  c.fused_frames = FieldAfter(drained, "(fused ");
  c.frames_shed = FieldAfter(drained, "shed ");
  c.blocks_moved = FieldAfter(drained, "blocks moved=");
  c.journal_bytes = FieldAfter(durability, " bytes=");
  c.fsyncs = FieldAfter(durability, "fsyncs=");
  c.riders = FieldAfter(durability, "(riders ");
  return c;
}

void AddLayerMetrics(const LayerInputs& inputs, RunResult* result) {
  std::vector<Metric>& m = result->metrics;
  const double ops = static_cast<double>(inputs.traced_ops);

  // scheme + transport, from the spans.
  const SpanStats spans = AnalyzeSpans(inputs.traces);
  const Summary self(spans.self_ns);
  const Summary submit(spans.submit_ns);
  const Summary wait(spans.wait_ns);
  uint64_t submits = 0;
  for (const ClientTrace* trace : inputs.traces) {
    submits += trace->submits_active();
  }
  std::vector<double> exchange_ns;
  for (const ClientTrace* trace : inputs.traces) {
    exchange_ns.insert(exchange_ns.end(), trace->exchange_ns().begin(),
                       trace->exchange_ns().end());
  }
  const Summary exchange(std::move(exchange_ns));
  const double exchange_p50_us = Q(exchange, 5000, 1e-3);
  m.push_back({"scheme.self_p50_us", Q(self, 5000, 1e-3), "us", self.count()});
  m.push_back({"scheme.self_mean_us", self.mean() / 1e3, "us", self.count()});
  m.push_back({"transport.submit_p50_us", Q(submit, 5000, 1e-3), "us",
               submit.count()});
  m.push_back({"transport.wait_p50_us", Q(wait, 5000, 1e-3), "us",
               wait.count()});
  m.push_back({"transport.wait_p90_us", Q(wait, 9000, 1e-3), "us",
               wait.count()});
  m.push_back({"transport.exchange_p50_us", exchange_p50_us, "us",
               exchange.count()});
  m.push_back({"transport.exchanges_per_op",
               Ratio(static_cast<double>(submits), ops), "count",
               inputs.traced_ops});
  m.push_back({"transport.roundtrips_per_op",
               Ratio(static_cast<double>(inputs.traced_totals.roundtrips), ops),
               "count", inputs.traced_ops});
  m.push_back({"transport.blocks_per_op",
               Ratio(static_cast<double>(inputs.traced_totals.blocks_moved),
                     ops),
               "count", inputs.traced_ops});
  m.push_back({"transport.retries",
               static_cast<double>(inputs.traced_totals.retries), "count",
               inputs.traced_ops});

  // Sum check: scheme self + submit + wait must account for the latency
  // the load loop measured around each operation.
  const double loop_mean_ns = Summary(inputs.traced_latency_ns).mean();
  const double parts_ns =
      self.mean() +
      Ratio(submit.mean() * static_cast<double>(submit.count()), ops) +
      Ratio(wait.mean() * static_cast<double>(wait.count()), ops);
  const double gap_pct =
      100.0 * std::fabs(loop_mean_ns - parts_ns) / loop_mean_ns;
  char line[256];
  std::snprintf(line, sizeof(line),
                "sum check: scheme self %.3f + submit %.3f + wait %.3f = "
                "%.3f us vs mean op latency %.3f us: gap %.3f%% (tolerance "
                "%.1f%%) %s",
                self.mean() / 1e3,
                Ratio(submit.mean() * static_cast<double>(submit.count()),
                      ops) / 1e3,
                Ratio(wait.mean() * static_cast<double>(wait.count()), ops) /
                    1e3,
                parts_ns / 1e3, loop_mean_ns / 1e3, gap_pct, kSumTolerancePct,
                gap_pct <= kSumTolerancePct ? "ok" : "FAILED");
  result->lines.push_back(line);
  if (!(gap_pct <= kSumTolerancePct)) result->correct = false;

  // wire
  const std::vector<const RecordedExchange*> recorded =
      Recorded(inputs.traces);
  bool decode_ok = true;
  const WireTimes wire = ReplayWire(recorded, &decode_ok);
  if (!decode_ok) {
    result->correct = false;
    result->lines.push_back("error: a replayed frame did not decode");
  }
  m.push_back({"wire.encode_us_per_exchange", wire.encode_us, "us",
               recorded.size()});
  m.push_back({"wire.decode_us_per_exchange", wire.decode_us, "us",
               recorded.size()});

  // engine + persist replay
  const EngineTimes engine = ReplayEngine(recorded, inputs);
  if (!engine.ok) {
    result->correct = false;
    result->lines.push_back("error: an engine replay exchange failed");
  }
  const Summary execute(engine.execute_ns);
  const Summary sync(engine.sync_ns);
  const double execute_p50_us = Q(execute, 5000, 1e-3);
  m.push_back({"engine.execute_p50_us", execute_p50_us, "us",
               execute.count()});
  m.push_back({"engine.execute_p90_us", Q(execute, 9000, 1e-3), "us",
               execute.count()});
  m.push_back({"engine.blocks_per_exchange", engine.blocks_per_exchange,
               "count", execute.count()});

  ServerCounters sum;
  uint64_t max_blocks = 0;
  for (const ServerCounters& s : inputs.servers) {
    sum.exchanges += s.exchanges;
    sum.fused_frames += s.fused_frames;
    sum.frames_shed += s.frames_shed;
    sum.blocks_moved += s.blocks_moved;
    sum.journal_bytes += s.journal_bytes;
    sum.fsyncs += s.fsyncs;
    sum.riders += s.riders;
    max_blocks = std::max(max_blocks, s.blocks_moved);
  }
  const double lifetime_ops = static_cast<double>(inputs.lifetime_ops);
  m.push_back({"persist.sync_p50_us", Q(sync, 5000, 1e-3), "us",
               sync.count()});
  m.push_back({"persist.fsyncs_per_op",
               Ratio(static_cast<double>(sum.fsyncs), lifetime_ops), "count",
               inputs.lifetime_ops});
  m.push_back({"persist.journal_bytes_per_op",
               Ratio(static_cast<double>(sum.journal_bytes), lifetime_ops),
               "B", inputs.lifetime_ops});
  m.push_back({"persist.rider_share",
               Ratio(static_cast<double>(sum.riders),
                     static_cast<double>(sum.fsyncs + sum.riders)),
               "ratio", sum.fsyncs + sum.riders});
  m.push_back({"persist.recovered_records",
               static_cast<double>(inputs.recovered_records), "count", 0});

  // service: the drained lines, and the exchange latency the replays do
  // not account for (socket, queueing, worker hand-off).
  m.push_back({"service.exchanges_per_op",
               Ratio(static_cast<double>(sum.exchanges), lifetime_ops),
               "count", inputs.lifetime_ops});
  m.push_back({"service.fused_share",
               Ratio(static_cast<double>(sum.fused_frames),
                     static_cast<double>(sum.exchanges)),
               "ratio", sum.exchanges});
  m.push_back({"service.frames_shed", static_cast<double>(sum.frames_shed),
               "count", sum.exchanges});
  m.push_back({"service.residual_p50_us",
               exchange_p50_us - execute_p50_us - wire.encode_us -
                   wire.decode_us,
               "us", exchange.count()});

  // cluster: server-side exchanges per client exchange, and how evenly
  // the nodes moved blocks.
  m.push_back({"cluster.legs_per_exchange",
               Ratio(static_cast<double>(sum.exchanges),
                     static_cast<double>(inputs.lifetime_submits)),
               "count", inputs.lifetime_submits});
  m.push_back({"cluster.block_imbalance",
               Ratio(static_cast<double>(max_blocks),
                     static_cast<double>(sum.blocks_moved) /
                         static_cast<double>(inputs.servers.size())),
               "ratio", inputs.servers.size()});

  // crypto + kernels, direct calls.
  bool crypto_ok = true;
  const CryptoTimes crypto = MeasureCryptoAndKernels(&crypto_ok);
  if (!crypto_ok) {
    result->correct = false;
    result->lines.push_back("error: DpfGen failed");
  }
  m.push_back({"crypto.dpf_gen_us", crypto.gen_us, "us",
               static_cast<uint64_t>(kDpfGenCalls)});
  m.push_back({"crypto.dpf_eval_full_ms", crypto.eval_full_ms, "ms",
               static_cast<uint64_t>(kDpfEvalCalls)});
  m.push_back({"kernels.select_xor_scan_ms", crypto.scan_ms, "ms",
               static_cast<uint64_t>(kScanCalls)});

  m.push_back({"trace.overhead_pct",
               100.0 * Ratio(inputs.untraced_ops_per_s -
                                 inputs.traced_ops_per_s,
                             inputs.untraced_ops_per_s),
               "%", inputs.traced_ops});
  m.push_back({"trace.sum_gap_pct", gap_pct, "%", inputs.traced_ops});

  std::snprintf(line, sizeof(line),
                "trace: ops_per_s untraced %.1f, traced %.1f; %zu exchanges "
                "replayed through the wire codec (%llu bytes), %llu through "
                "the engine",
                inputs.untraced_ops_per_s, inputs.traced_ops_per_s,
                recorded.size(), static_cast<unsigned long long>(wire.bytes),
                static_cast<unsigned long long>(execute.count()));
  result->lines.push_back(line);
}

}  // namespace perfbench
