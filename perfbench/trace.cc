#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kSubmit:
      return "submit";
    case SpanKind::kWait:
      return "wait";
  }
  return "?";
}

void ClientTrace::BeginOp(uint64_t op_id) {
  if (!active_) return;
  Span span;
  span.kind = SpanKind::kOp;
  span.op_id = op_id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_op_ = static_cast<uint32_t>(spans_.size());
  open_op_id_ = op_id;
}

void ClientTrace::EndOp() {
  if (open_op_ == 0) return;
  spans_[open_op_ - 1].end_ns = NowNs();
  open_op_ = 0;
}

void ClientTrace::AddChild(SpanKind kind, int64_t start_ns, int64_t end_ns) {
  if (!active_ || open_op_ == 0) return;
  Span span;
  span.kind = kind;
  span.parent = open_op_;
  span.op_id = open_op_id_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

dpstore::Ticket TimingBackend::Submit(dpstore::StorageRequest request) {
  trace_->CountSubmit();
  const bool sample = trace_->WantRecord() && !request.IsNoOp();
  RecordedExchange copy;
  if (sample) {
    copy.request = request;
    copy.n = inner_->n();
    copy.block_size = inner_->block_size();
  }
  const int64_t start = NowNs();
  const dpstore::Ticket ticket = inner_->Submit(std::move(request));
  trace_->AddChild(SpanKind::kSubmit, start, NowNs());
  submitted_.emplace(ticket, start);
  if (sample) {
    sampled_.emplace(ticket, trace_->recorded().size());
    trace_->Record(std::move(copy));
  }
  return ticket;
}

dpstore::StatusOr<dpstore::StorageReply> TimingBackend::Wait(
    dpstore::Ticket ticket) {
  const int64_t start = NowNs();
  dpstore::StatusOr<dpstore::StorageReply> reply = inner_->Wait(ticket);
  const int64_t end = NowNs();
  trace_->AddChild(SpanKind::kWait, start, end);
  auto flight = submitted_.find(ticket);
  if (flight != submitted_.end()) {
    trace_->AddExchange(end - flight->second);
    submitted_.erase(flight);
  }
  auto it = sampled_.find(ticket);
  if (it != sampled_.end()) {
    if (reply.ok()) trace_->recorded()[it->second].reply = reply->blocks;
    sampled_.erase(it);
  }
  return reply;
}

dpstore::BackendFactory TimingFactory(dpstore::BackendFactory inner,
                                      ClientTrace* trace) {
  return [inner = std::move(inner), trace](uint64_t n, size_t block_size) {
    return std::unique_ptr<dpstore::StorageBackend>(
        std::make_unique<TimingBackend>(
            dpstore::MakeBackend(inner, n, block_size), trace));
  };
}

bool WriteSpans(const std::string& path,
                const std::vector<const ClientTrace*>& traces) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "client\tspan\tkind\tparent\top\tstart_ns\tend_ns\n");
  for (size_t c = 0; c < traces.size(); ++c) {
    const std::vector<Span>& spans = traces[c]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu\t%zu\t%s\t%u\t%llu\t%lld\t%lld\n", c, i + 1,
                   SpanKindName(s.kind), s.parent,
                   static_cast<unsigned long long>(s.op_id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
