#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span tracing for the deployment benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public functions: an "op" span around each
// RamScheme::QueryRead / QueryWrite, and "submit" / "wait" child spans
// around StorageBackend::Submit / Wait, taken by a TimingBackend that the
// benchmark interposes through SchemeConfig::backend_factory. Each client
// thread owns one ClientTrace, so recording takes no lock. Spans stay in
// memory and are written out when the run ends.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/backend.h"
#include "storage/block_buffer.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t { kOp = 0, kSubmit = 1, kWait = 2 };

const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kOp;
  /// 1-based index of the parent span in the same ClientTrace; 0 = root.
  uint32_t parent = 0;
  /// The client operation this span belongs to.
  uint64_t op_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One exchange captured for the wire and engine replays, with the
/// geometry of the backend it was sent to.
struct RecordedExchange {
  dpstore::StorageRequest request;
  dpstore::BlockBuffer reply;
  uint64_t n = 0;
  size_t block_size = 0;
};

/// Spans, exchange counts and sampled exchanges of one client thread.
class ClientTrace {
 public:
  explicit ClientTrace(size_t max_recorded) : max_recorded_(max_recorded) {}

  /// Spans and samples are only taken while active (the traced window).
  void set_active(bool active) { active_ = active; }

  /// Opens the op span that later child spans attach to.
  void BeginOp(uint64_t op_id);
  void EndOp();
  void AddChild(SpanKind kind, int64_t start_ns, int64_t end_ns);

  bool WantRecord() const {
    return active_ && recorded_.size() < max_recorded_;
  }
  void Record(RecordedExchange exchange) {
    recorded_.push_back(std::move(exchange));
  }

  /// Exchanges submitted over the client's lifetime / while active.
  void CountSubmit() {
    ++submits_total_;
    if (active_) ++submits_active_;
  }
  uint64_t submits_total() const { return submits_total_; }
  uint64_t submits_active() const { return submits_active_; }

  /// Submit-to-Wait-return time of each exchange while active: the
  /// exchange's own latency, also when the client overlaps exchanges.
  void AddExchange(int64_t ns) {
    if (active_) exchange_ns_.push_back(static_cast<double>(ns));
  }
  const std::vector<double>& exchange_ns() const { return exchange_ns_; }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<RecordedExchange>& recorded() { return recorded_; }
  const std::vector<RecordedExchange>& recorded() const { return recorded_; }

 private:
  const size_t max_recorded_;
  bool active_ = false;
  uint32_t open_op_ = 0;
  uint64_t open_op_id_ = 0;
  std::vector<Span> spans_;
  std::vector<double> exchange_ns_;
  std::vector<RecordedExchange> recorded_;
  uint64_t submits_total_ = 0;
  uint64_t submits_active_ = 0;
};

/// StorageBackend decorator timing Submit and Wait into a ClientTrace and
/// sampling exchanges for replay. Everything else forwards to `inner`.
class TimingBackend : public dpstore::StorageBackend {
 public:
  TimingBackend(std::unique_ptr<dpstore::StorageBackend> inner,
                ClientTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  uint64_t n() const override { return inner_->n(); }
  size_t block_size() const override { return inner_->block_size(); }
  dpstore::Status SetArray(std::vector<dpstore::Block> blocks) override {
    return inner_->SetArray(std::move(blocks));
  }

  dpstore::Ticket Submit(dpstore::StorageRequest request) override;
  dpstore::StatusOr<dpstore::StorageReply> Wait(
      dpstore::Ticket ticket) override;

  void BeginQuery() override { inner_->BeginQuery(); }
  const dpstore::Transcript& transcript() const override {
    return inner_->transcript();
  }
  void ResetTranscript() override { inner_->ResetTranscript(); }
  void SetTranscriptCountingOnly(bool counting_only) override {
    inner_->SetTranscriptCountingOnly(counting_only);
  }
  dpstore::Block PeekBlock(dpstore::BlockId index) const override {
    return inner_->PeekBlock(index);
  }
  void CorruptBlock(dpstore::BlockId index) override {
    inner_->CorruptBlock(index);
  }
  void SetFailureRate(double rate, uint64_t seed = 7) override {
    inner_->SetFailureRate(rate, seed);
  }
  double MeasuredWallMs() const override { return inner_->MeasuredWallMs(); }
  uint64_t RetriedAttempts() const override {
    return inner_->RetriedAttempts();
  }

 protected:
  dpstore::StatusOr<dpstore::StorageReply> Execute(
      dpstore::StorageRequest request) override {
    return Wait(Submit(std::move(request)));
  }

 private:
  std::unique_ptr<dpstore::StorageBackend> inner_;
  ClientTrace* trace_;
  /// Submit start of every exchange in flight.
  std::unordered_map<dpstore::Ticket, int64_t> submitted_;
  /// Tickets whose exchange is being sampled -> index in recorded().
  std::unordered_map<dpstore::Ticket, size_t> sampled_;
};

/// Wraps every backend `inner` builds in a TimingBackend reporting to
/// `trace` (which must outlive the backends).
dpstore::BackendFactory TimingFactory(dpstore::BackendFactory inner,
                                      ClientTrace* trace);

/// Writes every span as one tab-separated line: client, span id, kind,
/// parent id, op id, start ns, end ns. False on an I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const ClientTrace*>& traces);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
