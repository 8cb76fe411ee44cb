#include "storage/cluster.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "storage/kernels.h"
#include "storage/socket_backend.h"
#include "util/check.h"

namespace dpstore {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const unsigned char uc = static_cast<unsigned char>(c);
    if (!std::isalnum(uc) && c != '_' && c != '-' && c != '.') return false;
  }
  return true;
}

/// Strict full-token uint64 parse (no sign, no trailing junk) — the config
/// fuzz loop (cluster_test) feeds this arbitrary bytes, so it must reject
/// rather than wrap, crash, or accept partially.
bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.empty()) return false;
  auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && end == token.data() + token.size();
}

Status LineError(size_t line_no, const std::string& line, std::string why) {
  std::string message = "cluster config line ";
  message.append(std::to_string(line_no));
  message.append(" ('");
  message.append(line);
  message.append("'): ");
  message.append(why);
  return InvalidArgumentError(std::move(message));
}

Status ParseEndpoint(const std::string& endpoint, ClusterNode* node) {
  node->endpoint = endpoint;
  if (endpoint.rfind("unix:", 0) == 0) {
    node->unix_path = endpoint.substr(5);
    if (node->unix_path.empty()) {
      return InvalidArgumentError("empty unix socket path");
    }
    return OkStatus();
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    const std::string rest = endpoint.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return InvalidArgumentError("tcp endpoint must be tcp:<host>:<port>");
    }
    node->host = rest.substr(0, colon);
    uint64_t port = 0;
    if (!ParseU64(rest.substr(colon + 1), &port) || port == 0 ||
        port > 65535) {
      return InvalidArgumentError("tcp port must be in [1, 65535]");
    }
    node->port = static_cast<uint16_t>(port);
    return OkStatus();
  }
  return InvalidArgumentError(
      "endpoint must be unix:<path> or tcp:<host>:<port>");
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') break;  // comment to end of line
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

}  // namespace

size_t ClusterConfig::NodeIndex(const std::string& name) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  return nodes_.size();
}

StatusOr<ClusterConfig> ClusterConfig::Parse(const std::string& text) {
  ClusterConfig config;
  bool slots_set = false;
  std::istringstream lines(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];
    if (directive == "slots") {
      if (tokens.size() != 2) {
        return LineError(line_no, line, "slots takes exactly one count");
      }
      if (slots_set) {
        return LineError(line_no, line, "duplicate slots directive");
      }
      if (!ParseU64(tokens[1], &config.slots_) || config.slots_ == 0) {
        return LineError(line_no, line, "slots must be a positive integer");
      }
      slots_set = true;
    } else if (directive == "node") {
      if (tokens.size() != 3) {
        return LineError(line_no, line, "node takes a name and an endpoint");
      }
      ClusterNode node;
      node.name = tokens[1];
      if (!ValidName(node.name)) {
        return LineError(line_no, line,
                         "node name must be [A-Za-z0-9_.-]+ ('" + node.name +
                             "')");
      }
      if (config.NodeIndex(node.name) != config.nodes_.size()) {
        return LineError(line_no, line,
                         "duplicate node name '" + node.name + "'");
      }
      Status endpoint_status = ParseEndpoint(tokens[2], &node);
      if (!endpoint_status.ok()) {
        return LineError(line_no, line, endpoint_status.message());
      }
      for (const ClusterNode& other : config.nodes_) {
        if (other.endpoint == node.endpoint) {
          return LineError(line_no, line,
                           "duplicate endpoint '" + node.endpoint + "'");
        }
      }
      config.nodes_.push_back(std::move(node));
    } else if (directive == "range") {
      if (tokens.size() < 4) {
        return LineError(line_no, line,
                         "range takes lo, hi and at least one node");
      }
      ClusterRange range;
      if (!ParseU64(tokens[1], &range.lo) || !ParseU64(tokens[2], &range.hi)) {
        return LineError(line_no, line, "range bounds must be integers");
      }
      if (range.lo >= range.hi) {
        return LineError(line_no, line, "range needs lo < hi");
      }
      for (size_t t = 3; t < tokens.size(); ++t) {
        const size_t node = config.NodeIndex(tokens[t]);
        if (node == config.nodes_.size()) {
          return LineError(line_no, line,
                           "range names undeclared node '" + tokens[t] + "'");
        }
        if (std::find(range.members.begin(), range.members.end(), node) !=
            range.members.end()) {
          return LineError(line_no, line,
                           "range lists node '" + tokens[t] + "' twice");
        }
        range.members.push_back(node);
      }
      config.ranges_.push_back(std::move(range));
    } else if (directive == "spare") {
      if (tokens.size() != 2) {
        return LineError(line_no, line, "spare takes exactly one node name");
      }
      const size_t node = config.NodeIndex(tokens[1]);
      if (node == config.nodes_.size()) {
        return LineError(line_no, line,
                         "spare names undeclared node '" + tokens[1] + "'");
      }
      if (std::find(config.spares_.begin(), config.spares_.end(), node) !=
          config.spares_.end()) {
        return LineError(line_no, line,
                         "duplicate spare '" + tokens[1] + "'");
      }
      config.spares_.push_back(node);
    } else {
      return LineError(line_no, line,
                       "unknown directive '" + directive +
                           "' (known: slots, node, range, spare)");
    }
  }
  DPSTORE_RETURN_IF_ERROR(config.Validate());
  return config;
}

StatusOr<ClusterConfig> ClusterConfig::ParseFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return NotFoundError("cannot read cluster config file '" + path + "'");
  }
  std::ostringstream text;
  text << file.rdbuf();
  return Parse(text.str());
}

Status ClusterConfig::Validate() {
  if (ranges_.empty()) {
    return InvalidArgumentError(
        "cluster config declares no shard ranges (need at least one "
        "'range lo hi node...' line)");
  }
  std::stable_sort(ranges_.begin(), ranges_.end(),
                   [](const ClusterRange& a, const ClusterRange& b) {
                     return a.lo < b.lo;
                   });
  uint64_t covered = 0;
  for (const ClusterRange& range : ranges_) {
    if (range.lo < covered) {
      return InvalidArgumentError(
          "overlapping shard ranges at slot " + std::to_string(range.lo) +
          " (ranges must tile [0, slots) disjointly)");
    }
    if (range.lo > covered) {
      return InvalidArgumentError(
          "gap in shard ranges: slots [" + std::to_string(covered) + ", " +
          std::to_string(range.lo) + ") are served by no node");
    }
    covered = range.hi;
  }
  if (slots_ == 0) {
    slots_ = covered;
  } else if (slots_ != covered) {
    return InvalidArgumentError(
        "slots " + std::to_string(slots_) + " does not match ranges covering "
        "[0, " + std::to_string(covered) + ")");
  }
  // A node serves at most one range; spares serve none.
  std::vector<size_t> serving(nodes_.size(), kNone);
  for (size_t r = 0; r < ranges_.size(); ++r) {
    for (size_t node : ranges_[r].members) {
      if (serving[node] != kNone) {
        return InvalidArgumentError("node '" + nodes_[node].name +
                                    "' serves more than one range");
      }
      serving[node] = r;
    }
  }
  for (size_t node : spares_) {
    if (serving[node] != kNone) {
      return InvalidArgumentError("spare '" + nodes_[node].name +
                                  "' also serves a range");
    }
  }
  // Every declared node must do something: an unused node is a config typo
  // (a misspelled range member silently dropping a server).
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (serving[i] == kNone &&
        std::find(spares_.begin(), spares_.end(), i) == spares_.end()) {
      return InvalidArgumentError("node '" + nodes_[i].name +
                                  "' is declared but serves no range and is "
                                  "not a spare");
    }
  }
  return OkStatus();
}

ClusterBackend::ClusterBackend(uint64_t n, size_t block_size,
                               ClusterConfig config,
                               ClusterBackendOptions options)
    : config_(std::move(config)),
      options_(std::move(options)),
      n_(n),
      block_size_(block_size),
      pool_(std::make_shared<BufferPool>()) {
  const uint64_t slots = config_.slots();
  rows_per_slot_ = std::max<uint64_t>((n + slots - 1) / slots, 1);
  slot_to_range_.assign(slots, 0);
  for (size_t r = 0; r < config_.ranges().size(); ++r) {
    for (uint64_t s = config_.ranges()[r].lo; s < config_.ranges()[r].hi;
         ++s) {
      slot_to_range_[s] = r;
    }
    members_.push_back(config_.ranges()[r].members);
  }
  spares_ = config_.spares();
  leg_base_.assign(config_.nodes().size(), 0);
  legs_.resize(config_.nodes().size());
  node_dead_.assign(config_.nodes().size(), false);
  for (size_t r = 0; r < members_.size(); ++r) {
    auto [lo_block, hi_block] = RangeBlocks(r);
    for (size_t node : members_[r]) {
      leg_base_[node] = lo_block;
      if (hi_block > lo_block) {
        legs_[node] = MakeLeg(node, hi_block - lo_block);
      }
    }
  }
  // Spares hold full-size arenas (local address = global address), so any
  // spare can adopt any range without moving a byte at failover time.
  for (size_t node : spares_) {
    leg_base_[node] = 0;
    legs_[node] = MakeLeg(node, n_);
  }
}

std::unique_ptr<StorageBackend> ClusterBackend::MakeLeg(size_t node_index,
                                                        uint64_t leg_n) {
  const ClusterNode& node = config_.nodes()[node_index];
  if (options_.leg_factory) {
    return options_.leg_factory(node_index, node, leg_n, block_size_);
  }
  SocketBackendOptions socket_options;
  socket_options.socket_path = node.unix_path;
  socket_options.host = node.host;
  socket_options.port = node.port;
  socket_options.max_reconnects = options_.max_reconnects;
  socket_options.reconnect_seed = options_.reconnect_seed + 1 + node_index;
  if (options_.namespace_base != 0) {
    socket_options.namespace_id = options_.namespace_base + node_index;
    socket_options.attach_or_create = true;
  }
  return std::make_unique<SocketBackend>(leg_n, block_size_,
                                         std::move(socket_options));
}

std::pair<uint64_t, uint64_t> ClusterBackend::RangeBlocks(size_t r) const {
  const ClusterRange& range = config_.ranges()[r];
  return {std::min(range.lo * rows_per_slot_, n_),
          std::min(range.hi * rows_per_slot_, n_)};
}

size_t ClusterBackend::RangeOf(BlockId index) const {
  const uint64_t slot =
      std::min<uint64_t>(index / rows_per_slot_, config_.slots() - 1);
  return slot_to_range_[slot];
}

Status ClusterBackend::SetArray(std::vector<Block> blocks) {
  if (blocks.size() != n_) {
    return InvalidArgumentError("SetArray: wrong block count");
  }
  for (const Block& block : blocks) {
    if (block.size() != block_size_) {
      return InvalidArgumentError("SetArray: block size mismatch");
    }
  }
  // The last consumer of every block takes it by move: a range's last
  // member when no spare follows, else the last spare (the whole array).
  for (size_t r = 0; r < members_.size(); ++r) {
    auto [lo_block, hi_block] = RangeBlocks(r);
    if (hi_block == lo_block) continue;
    if (members_[r].empty()) {
      return UnavailableError("SetArray: range " + std::to_string(r) +
                              " has no live members");
    }
    for (size_t m = 0; m < members_[r].size(); ++m) {
      const size_t node = members_[r][m];
      const auto lo = blocks.begin() + lo_block;
      const auto hi = blocks.begin() + hi_block;
      std::vector<Block> chunk =
          spares_.empty() && m + 1 == members_[r].size()
              ? std::vector<Block>(std::make_move_iterator(lo),
                                   std::make_move_iterator(hi))
              : std::vector<Block>(lo, hi);
      if (leg_base_[node] != lo_block) {
        // Full-size leg (a spare adopted into this range): place the chunk
        // via an unrecorded upload at global addresses, leaving the rest of
        // its arena untouched.
        std::vector<BlockId> indices(hi_block - lo_block);
        for (uint64_t i = 0; i < indices.size(); ++i) {
          indices[i] = lo_block + i - leg_base_[node];
        }
        DPSTORE_RETURN_IF_ERROR(
            legs_[node]
                ->Exchange(StorageRequest::UploadOf(std::move(indices),
                                                    BlockBuffer::Pack(chunk)))
                .status());
      } else {
        DPSTORE_RETURN_IF_ERROR(legs_[node]->SetArray(std::move(chunk)));
      }
    }
  }
  for (size_t k = 0; k < spares_.size(); ++k) {
    std::vector<Block> copy =
        k + 1 == spares_.size() ? std::move(blocks) : blocks;
    DPSTORE_RETURN_IF_ERROR(legs_[spares_[k]]->SetArray(std::move(copy)));
  }
  return OkStatus();
}

Ticket ClusterBackend::ParkImmediate(Status status) {
  Flight flight;
  flight.immediate = true;
  flight.immediate_status = std::move(status);
  const Ticket ticket = next_ticket_++;
  flights_.emplace(ticket, std::move(flight));
  return ticket;
}

void ClusterBackend::SubmitLeg(Flight& flight, size_t node,
                               StorageRequest leg_request,
                               std::vector<size_t> positions) {
  LegCall call;
  call.node = node;
  call.positions = std::move(positions);
  call.ticket = legs_[node]->Submit(std::move(leg_request));
  flight.calls.push_back(std::move(call));
}

Ticket ClusterBackend::Submit(StorageRequest request) {
  if (request.op != StorageRequest::Op::kDpfEval && request.IsNoOp()) {
    // Free by contract: no RPC, no fault roll, no transcript event.
    return ParkImmediate(OkStatus());
  }
  Status status = ValidateRequest(request, n_, block_size_);
  if (status.ok()) status = faults_.MaybeInject();
  if (!status.ok()) return ParkImmediate(std::move(status));

  const uint64_t deadline_ms =
      request.deadline_ms != 0 ? request.deadline_ms : options_.leg_deadline_ms;

  Flight flight;
  flight.op = request.op;
  flight.submitted = std::chrono::steady_clock::now();

  if (request.op == StorageRequest::Op::kDpfEval) {
    flight.eval_key_bytes = request.payload.bytes();
    // Liveness pre-scan before anything is submitted: a dead range must
    // fail the exchange before any leg runs (atomicity).
    for (size_t r = 0; r < members_.size(); ++r) {
      auto [lo_block, hi_block] = RangeBlocks(r);
      if (hi_block == lo_block) continue;
      if (members_[r].empty()) {
        return ParkImmediate(UnavailableError(
            "cluster range " + std::to_string(r) +
            " has no live members (spares exhausted)"));
      }
    }
    // Each primary evaluates the SAME key over its own slice of the
    // selection-bit domain (offset bumped by the range's block base); the
    // XOR of the per-range answers equals the whole-arena answer.
    for (size_t r = 0; r < members_.size(); ++r) {
      auto [lo_block, hi_block] = RangeBlocks(r);
      if (hi_block == lo_block) continue;
      StorageRequest leg;
      leg.op = StorageRequest::Op::kDpfEval;
      leg.payload = request.payload;  // deep copy; keys are O(lambda log n)
      leg.dpf_offset = request.dpf_offset + lo_block;
      leg.deadline_ms = deadline_ms;
      SubmitLeg(flight, members_[r][0], std::move(leg));
    }
    const Ticket ticket = next_ticket_++;
    flights_.emplace(ticket, std::move(flight));
    return ticket;
  }

  flight.indices = request.indices;

  // Partition the batch into per-range legs (global addresses + reply
  // positions), counting first so each leg reserves exactly once.
  std::vector<std::vector<BlockId>> range_indices(members_.size());
  std::vector<std::vector<size_t>> range_positions(members_.size());
  std::vector<size_t> counts(members_.size(), 0);
  for (BlockId index : request.indices) ++counts[RangeOf(index)];
  for (size_t r = 0; r < members_.size(); ++r) {
    range_indices[r].reserve(counts[r]);
    range_positions[r].reserve(counts[r]);
  }
  for (size_t i = 0; i < request.indices.size(); ++i) {
    const size_t r = RangeOf(request.indices[i]);
    range_indices[r].push_back(request.indices[i]);
    range_positions[r].push_back(i);
  }
  for (size_t r = 0; r < members_.size(); ++r) {
    if (!range_indices[r].empty() && members_[r].empty()) {
      return ParkImmediate(UnavailableError(
          "cluster range " + std::to_string(r) +
          " has no live members (spares exhausted)"));
    }
  }

  if (request.op == StorageRequest::Op::kDownload) {
    for (size_t r = 0; r < members_.size(); ++r) {
      if (range_indices[r].empty()) continue;
      const size_t node = members_[r][0];
      std::vector<BlockId> local = range_indices[r];
      for (BlockId& index : local) index -= leg_base_[node];
      StorageRequest leg = StorageRequest::DownloadOf(std::move(local));
      leg.deadline_ms = deadline_ms;
      SubmitLeg(flight, node, std::move(leg), std::move(range_positions[r]));
    }
  } else {
    // Uploads mirror to every member of each touched range (replicas stay
    // bit-identical) and, whole-batch, to every remaining spare (warm
    // standby: adoption never has to move a byte).
    const uint8_t* in =
        request.payload.empty() ? nullptr : request.payload[0].data();
    for (size_t r = 0; r < members_.size(); ++r) {
      if (range_indices[r].empty()) continue;
      const std::vector<size_t>& positions = range_positions[r];
      BlockBuffer chunk =
          BlockBuffer::FromPool(pool_, positions.size(), block_size_);
      uint8_t* chunk_out = chunk.empty() ? nullptr : chunk.Mutable(0).data();
      for (size_t k = 0; k < positions.size();) {
        size_t run = 1;
        while (k + run < positions.size() &&
               positions[k + run] == positions[k] + run) {
          ++run;
        }
        CopyBytes(chunk_out + k * block_size_,
                  in + positions[k] * block_size_, run * block_size_);
        k += run;
      }
      for (size_t m = 0; m < members_[r].size(); ++m) {
        const size_t node = members_[r][m];
        std::vector<BlockId> local = range_indices[r];
        for (BlockId& index : local) index -= leg_base_[node];
        BlockBuffer payload =
            m + 1 == members_[r].size() ? std::move(chunk) : chunk;
        StorageRequest leg =
            StorageRequest::UploadOf(std::move(local), std::move(payload));
        leg.deadline_ms = deadline_ms;
        leg.idempotent = request.idempotent;
        SubmitLeg(flight, node, std::move(leg));
      }
    }
    for (size_t node : spares_) {
      StorageRequest leg = StorageRequest::UploadOf(
          request.indices, request.payload);  // global addressing, deep copy
      leg.deadline_ms = deadline_ms;
      leg.idempotent = request.idempotent;
      SubmitLeg(flight, node, std::move(leg));
    }
  }

  const Ticket ticket = next_ticket_++;
  flights_.emplace(ticket, std::move(flight));
  return ticket;
}

StatusOr<StorageReply> ClusterBackend::Wait(Ticket ticket) {
  auto it = flights_.find(ticket);
  if (it == flights_.end()) {
    return InvalidArgumentError("Wait: unknown or already-consumed ticket " +
                                std::to_string(ticket));
  }
  Flight flight = std::move(it->second);
  flights_.erase(it);
  if (flight.immediate) {
    if (!flight.immediate_status.ok()) return flight.immediate_status;
    return StorageReply{};
  }

  StorageReply reply;
  uint8_t* out = nullptr;
  if (flight.op == StorageRequest::Op::kDownload) {
    reply.blocks =
        BlockBuffer::FromPool(pool_, flight.indices.size(), block_size_);
    out = reply.blocks.empty() ? nullptr : reply.blocks.Mutable(0).data();
  } else if (flight.op == StorageRequest::Op::kDpfEval) {
    reply.blocks = BlockBuffer::FromPool(pool_, 1, block_size_);
    out = reply.blocks.Mutable(0).data();
    std::memset(out, 0, block_size_);
  }

  // Gather every leg even after a failure: each ticket must be consumed,
  // and every dead node must be discovered in this pass so failover
  // repairs all of them before the next exchange routes.
  Status failure = OkStatus();
  std::vector<std::pair<size_t, Status>> dead;
  for (LegCall& call : flight.calls) {
    StatusOr<StorageReply> leg_reply = legs_[call.node]->Wait(call.ticket);
    if (!leg_reply.ok()) {
      if (failure.ok()) failure = leg_reply.status();
      const StatusCode code = leg_reply.status().code();
      if (code == StatusCode::kUnavailable ||
          code == StatusCode::kDeadlineExceeded) {
        dead.emplace_back(call.node, leg_reply.status());
      }
      continue;
    }
    if (flight.op == StorageRequest::Op::kDownload) {
      const uint8_t* in =
          leg_reply->blocks.empty() ? nullptr : leg_reply->blocks[0].data();
      const std::vector<size_t>& positions = call.positions;
      for (size_t k = 0; k < positions.size();) {
        size_t run = 1;
        while (k + run < positions.size() &&
               positions[k + run] == positions[k] + run) {
          ++run;
        }
        CopyBytes(out + positions[k] * block_size_, in + k * block_size_,
                  run * block_size_);
        k += run;
      }
    } else if (flight.op == StorageRequest::Op::kDpfEval) {
      kernels::XorAccumulate(out, leg_reply->blocks[0].data(), block_size_);
    }
  }
  for (const auto& [node, why] : dead) HandleNodeFailure(node, why);
  // Atomic failure, PR 9 semantics: any dead leg fails the whole exchange;
  // nothing is recorded, and the scheme's rollback discipline treats the
  // exchange as never having reached storage. (Replicated uploads may have
  // applied on surviving members — harmless, because a retried upload is a
  // pure overwrite of the same blocks; see docs/cluster.md.)
  if (!failure.ok()) return failure;

  if (flight.op == StorageRequest::Op::kDownload) {
    transcript_.RecordRoundtrip();
    transcript_.RecordMany(AccessEvent::Type::kDownload, flight.indices);
  } else if (flight.op == StorageRequest::Op::kUpload) {
    transcript_.RecordMany(AccessEvent::Type::kUpload, flight.indices);
  } else {
    transcript_.RecordRoundtrip();
    transcript_.RecordEval(flight.eval_key_bytes);
  }
  measured_wall_ms_ +=
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - flight.submitted)
          .count();
  return reply;
}

void ClusterBackend::HandleNodeFailure(size_t node, const Status& why) {
  if (node_dead_[node]) return;
  node_dead_[node] = true;
  ++failovers_;
  const std::string& name = config_.nodes()[node].name;
  std::vector<std::string> lines;
  for (size_t r = 0; r < members_.size(); ++r) {
    auto& group = members_[r];
    auto pos = std::find(group.begin(), group.end(), node);
    if (pos == group.end()) continue;
    const bool was_primary = pos == group.begin();
    group.erase(pos);
    auto [lo_block, hi_block] = RangeBlocks(r);
    std::string line = "range " + std::to_string(r) + " [" +
                       std::to_string(lo_block) + ", " +
                       std::to_string(hi_block) + "): node '" + name +
                       "' failed (" + why.ToString() + "); ";
    if (group.empty()) {
      size_t adopted = kNone;
      for (auto spare = spares_.begin(); spare != spares_.end(); ++spare) {
        if (!node_dead_[*spare]) {
          adopted = *spare;
          spares_.erase(spare);
          break;
        }
      }
      if (adopted != kNone) {
        group.push_back(adopted);
        line.append("failing over to spare '" +
                    config_.nodes()[adopted].name + "'");
      } else {
        line.append("no members remain and no spare is left — range dead");
      }
    } else if (was_primary) {
      line.append("failing over primary to replica '" +
                  config_.nodes()[group[0]].name + "'");
    } else {
      line.append("replica removed");
    }
    lines.push_back(std::move(line));
  }
  // A dead spare just leaves the adoption pool.
  auto spare = std::find(spares_.begin(), spares_.end(), node);
  if (spare != spares_.end()) {
    spares_.erase(spare);
    lines.push_back("spare '" + name + "' failed (" + why.ToString() +
                    "); removed from the adoption pool");
  }
  for (std::string& line : lines) {
    std::fprintf(stderr, "dpstore_cluster: %s\n", line.c_str());
    failover_log_.push_back(std::move(line));
  }
}

void ClusterBackend::BeginQuery() {
  transcript_.BeginQuery();
  for (auto& leg : legs_) {
    if (leg) leg->BeginQuery();
  }
}

void ClusterBackend::ResetTranscript() {
  transcript_.Clear();
  for (auto& leg : legs_) {
    if (leg) leg->ResetTranscript();
  }
}

void ClusterBackend::SetTranscriptCountingOnly(bool counting_only) {
  transcript_.SetCountingOnly(counting_only);
  for (auto& leg : legs_) {
    if (leg) leg->SetTranscriptCountingOnly(counting_only);
  }
}

Block ClusterBackend::PeekBlock(BlockId index) const {
  DPSTORE_CHECK_LT(index, n_);
  const size_t r = RangeOf(index);
  DPSTORE_CHECK(!members_[r].empty());
  const size_t node = members_[r][0];
  return legs_[node]->PeekBlock(index - leg_base_[node]);
}

void ClusterBackend::CorruptBlock(BlockId index) {
  DPSTORE_CHECK_LT(index, n_);
  const size_t r = RangeOf(index);
  DPSTORE_CHECK(!members_[r].empty());
  const size_t node = members_[r][0];
  legs_[node]->CorruptBlock(index - leg_base_[node]);
}

void ClusterBackend::SetFailureRate(double rate, uint64_t seed) {
  // Deliberately NOT forwarded to the legs: see the header for why one
  // roll per exchange at this level is what keeps exchanges atomic.
  faults_.Set(rate, seed);
}

uint64_t ClusterBackend::RetriedAttempts() const {
  uint64_t total = 0;
  for (const auto& leg : legs_) {
    if (leg) total += leg->RetriedAttempts();
  }
  return total;
}

StatusOr<ClusterBackend::RebalancePlan> ClusterBackend::PlanRebalance(
    size_t range_index, const std::string& to_node,
    uint64_t batch_blocks) const {
  if (range_index >= members_.size()) {
    return InvalidArgumentError("no such range " +
                                std::to_string(range_index));
  }
  if (batch_blocks == 0) {
    return InvalidArgumentError("rebalance batch_blocks must be >= 1");
  }
  if (members_[range_index].empty()) {
    return UnavailableError("range " + std::to_string(range_index) +
                            " has no live members to copy from");
  }
  const size_t to = config_.NodeIndex(to_node);
  if (to == config_.nodes().size()) {
    return InvalidArgumentError("no such node '" + to_node + "'");
  }
  if (std::find(spares_.begin(), spares_.end(), to) == spares_.end()) {
    return InvalidArgumentError(
        "rebalance target '" + to_node +
        "' is not a remaining spare (only full-size spare arenas can adopt "
        "a range)");
  }
  RebalancePlan plan;
  plan.range_index = range_index;
  plan.from = config_.nodes()[members_[range_index][0]].name;
  plan.to = to_node;
  auto [lo_block, hi_block] = RangeBlocks(range_index);
  plan.lo_block = lo_block;
  plan.hi_block = hi_block;
  plan.blocks = hi_block - lo_block;
  plan.bytes = plan.blocks * block_size_;
  plan.batch_blocks = batch_blocks;
  plan.batches = (plan.blocks + batch_blocks - 1) / batch_blocks;
  return plan;
}

StatusOr<double> ClusterBackend::ExecuteRebalance(const RebalancePlan& plan) {
  if (plan.range_index >= members_.size() ||
      members_[plan.range_index].empty()) {
    return FailedPreconditionError("rebalance plan is stale: range gone");
  }
  const size_t from = members_[plan.range_index][0];
  if (config_.nodes()[from].name != plan.from) {
    return FailedPreconditionError(
        "rebalance plan is stale: primary is now '" +
        config_.nodes()[from].name + "', planned from '" + plan.from + "'");
  }
  const size_t to = config_.NodeIndex(plan.to);
  auto spare = std::find(spares_.begin(), spares_.end(), to);
  if (to == config_.nodes().size() || spare == spares_.end()) {
    return FailedPreconditionError("rebalance plan is stale: target '" +
                                   plan.to + "' is no longer a spare");
  }
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t batch_lo = plan.lo_block; batch_lo < plan.hi_block;
       batch_lo += plan.batch_blocks) {
    const uint64_t batch_hi =
        std::min(batch_lo + plan.batch_blocks, plan.hi_block);
    std::vector<BlockId> src_indices(batch_hi - batch_lo);
    std::vector<BlockId> dst_indices(batch_hi - batch_lo);
    for (uint64_t i = 0; i < src_indices.size(); ++i) {
      src_indices[i] = batch_lo + i - leg_base_[from];
      dst_indices[i] = batch_lo + i - leg_base_[to];
    }
    DPSTORE_ASSIGN_OR_RETURN(
        StorageReply chunk,
        legs_[from]->Exchange(
            StorageRequest::DownloadOf(std::move(src_indices))));
    StorageRequest upload = StorageRequest::UploadOf(std::move(dst_indices),
                                                     std::move(chunk.blocks));
    upload.idempotent = true;  // pure overwrite: safe to retry
    DPSTORE_RETURN_IF_ERROR(legs_[to]->Exchange(std::move(upload)).status());
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  measured_wall_ms_ += wall_ms;
  // Atomic reassignment: the destination becomes primary, the source
  // leaves the group (its range-sized arena cannot host anything else),
  // surviving replicas stay.
  spares_.erase(spare);
  auto& group = members_[plan.range_index];
  group.erase(group.begin());
  group.insert(group.begin(), to);
  std::string line = "rebalanced range " + std::to_string(plan.range_index) +
                     " [" + std::to_string(plan.lo_block) + ", " +
                     std::to_string(plan.hi_block) + "): '" + plan.from +
                     "' -> '" + plan.to + "', " +
                     std::to_string(plan.blocks) + " blocks, " +
                     std::to_string(plan.bytes) + " bytes, " +
                     std::to_string(plan.batches) + " batches";
  std::fprintf(stderr, "dpstore_cluster: %s\n", line.c_str());
  failover_log_.push_back(std::move(line));
  return wall_ms;
}

StatusOr<StorageReply> ClusterBackend::Execute(StorageRequest request) {
  return Wait(Submit(std::move(request)));
}

BackendFactory ClusterBackendFactory(ClusterConfig config,
                                     ClusterBackendOptions options,
                                     bool counting_only) {
  auto next = std::make_shared<std::atomic<uint64_t>>(0);
  const uint64_t stride = config.nodes().size();
  return [config = std::move(config), options = std::move(options),
          counting_only, next, stride](uint64_t n, size_t block_size) {
    ClusterBackendOptions per = options;
    if (per.namespace_base != 0) {
      // Distinct shared-namespace window per built backend, so a scheme's
      // replicas never collide on a server-side arena.
      per.namespace_base += next->fetch_add(1) * stride;
    }
    auto backend = std::make_unique<ClusterBackend>(n, block_size, config,
                                                    std::move(per));
    if (counting_only) backend->SetTranscriptCountingOnly(true);
    return std::unique_ptr<StorageBackend>(std::move(backend));
  };
}

BackendFactory ShardedBackendFactory(uint64_t num_shards, bool counting_only) {
  DPSTORE_CHECK_GT(num_shards, 0u);
  // K single-slot ranges, one node each. The leg factory builds every leg
  // in memory, so the generated unix: endpoints are names, never dialed.
  std::string text = "slots ";
  text.append(std::to_string(num_shards)).append("\n");
  for (uint64_t s = 0; s < num_shards; ++s) {
    std::string name = "shard";
    name.append(std::to_string(s));
    text.append("node ").append(name).append(" unix:").append(name);
    text.append("\nrange ").append(std::to_string(s)).append(" ");
    text.append(std::to_string(s + 1)).append(" ").append(name).append("\n");
  }
  StatusOr<ClusterConfig> config = ClusterConfig::Parse(text);
  DPSTORE_CHECK_OK(config.status());
  ClusterBackendOptions options;
  options.leg_factory = [memory = MemoryBackendFactory(counting_only)](
                            size_t, const ClusterNode&, uint64_t n,
                            size_t block_size) { return memory(n, block_size); };
  return ClusterBackendFactory(*std::move(config), std::move(options),
                               counting_only);
}

}  // namespace dpstore
