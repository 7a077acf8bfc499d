// Serving phase: the saved model is loaded (with its CRC check) and served
// in-process through EpollServer -> BatchingServer -> InferenceEngine, while
// one non-blocking load-generator thread (this one) drives it over loopback
// connections.  Threads in use at any time: 2 engine workers, 1 reactor, 1
// generator.
//
// Phases, in order, repeated in kRounds rounds:
//   light    dense, open loop at a light fixed rate
//   busy     dense, open loop at a busy fixed rate, below saturation
//   dense    dense, closed loop with a fixed number of outstanding requests
//   sampled  LSH-sampled, closed loop, same outstanding count
//   engine   one fixed batch of queries through predict_topk_batch on the
//            serving pool, dense then sampled, repeated (no transport)
// Open-loop latency is timed from each request's due time, so a stalled
// generator or server charges its delay to every request behind it.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "data/svm_reader.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "serve/batching_server.h"
#include "serve/epoll_server.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/tcp_server.h"
#include "threading/thread_pool.h"
#include "util/rng.h"
#include "workloads.h"

namespace slidebench {

using namespace slide;

namespace {

// Serving set-up is timed (and repeated) only on the serving workload.
constexpr int kSetupRepeats = 5;
constexpr std::uint32_t kTopK = 5;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kOutstanding = 32;
// Each phase starts with these queries; their replies are re-scored by the
// reference forward pass.
constexpr std::size_t kReferenceQueries = 24;
constexpr std::size_t kWarmupQueries = 32;
constexpr double kStallSeconds = 20.0;
constexpr std::size_t kRounds = 5;
constexpr std::size_t kEngineBatch = 128;

struct Phase {
  const char* name;
  bool open;       // open loop at `rate`, else closed loop with kOutstanding
  double rate;     // queries/s (open loop)
  std::size_t count;
  bool sampled;
  std::size_t first = 0;  // query offset of request 0
};

struct PhaseOutcome {
  std::vector<double> latency_us;  // Ok replies
  std::vector<double> late_us;     // open loop: send time minus due time
  std::vector<std::uint32_t> top1; // per request; kInvalidId when failed
  std::vector<std::vector<std::uint32_t>> ids;  // first kReferenceQueries replies
  std::vector<std::vector<float>> scores;
  std::uint64_t failed = 0;
  double seconds = 0;  // first send to last reply
};

// The queries: the test split in a fixed shuffled order, the same in every
// run, so the P@1 of the replies compares across runs like that of a fixed
// test set.  The first kReferenceQueries of that order are re-scored
// independently.
struct Queries {
  data::Dataset test{1, 1};
  std::vector<std::uint32_t> order;
  std::vector<std::vector<double>> reference;  // logits, per reference query

  data::SparseVectorView x(std::size_t r) const { return test.features(index(r)); }
  std::size_t index(std::size_t r) const { return order[r % order.size()]; }
};

// Everything serving set-up builds.  Held by unique_ptr and destroyed, never
// assigned over, so teardown runs in reverse member order: transports stop
// before the servers drain, servers drain before the pool goes away.
struct ServeState {
  std::unique_ptr<infer::PackedModel> model;
  std::unique_ptr<infer::InferenceEngine> engine;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<serve::BatchingServer> dense;
  std::unique_ptr<serve::BatchingServer> sampled;
  std::unique_ptr<serve::EpollServer> dense_tx;
  std::unique_ptr<serve::EpollServer> sampled_tx;
};

serve::ServerConfig server_config(ThreadPool& pool, infer::TopKMode mode) {
  serve::ServerConfig c;
  c.k = kTopK;
  c.mode = mode;
  c.pool = &pool;
  return c;
}

// One pipelined, non-blocking client connection.  The server answers each
// connection in request order, so replies pair with `inflight` FIFO-wise.
class Conn {
 public:
  explicit Conn(std::uint16_t port)
      : fd_(serve::net::connect_with_timeout("127.0.0.1", port, 5000)) {
    serve::net::set_nonblocking(fd_, true);
    serve::net::enable_nodelay(fd_);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  bool wants_write() const { return out_off_ < out_.size(); }
  std::size_t inflight() const { return inflight_.size(); }

  void send(std::uint32_t request, const std::vector<std::uint8_t>& payload) {
    const auto len = static_cast<std::uint32_t>(payload.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(&len);
    out_.insert(out_.end(), p, p + 4);
    out_.insert(out_.end(), payload.begin(), payload.end());
    inflight_.push_back(request);
    flush();
  }

  void flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
    }
    out_.clear();
    out_off_ = 0;
  }

  // Reads what is available and hands each complete reply to `on_reply`.
  template <typename F>
  void receive(F&& on_reply) {
    std::uint8_t buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.insert(in_.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error(n == 0 ? "server closed the connection"
                                      : std::string("recv: ") + std::strerror(errno));
    }
    std::size_t pos = 0;
    while (in_.size() - pos >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, in_.data() + pos, 4);
      if (in_.size() - pos - 4 < len) break;
      if (inflight_.empty()) throw std::runtime_error("reply without a request");
      const std::uint32_t request = inflight_.front();
      inflight_.pop_front();
      on_reply(request, std::span<const std::uint8_t>(in_.data() + pos + 4, len));
      pos += 4 + len;
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

 private:
  int fd_;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> in_;
  std::deque<std::uint32_t> inflight_;
};

void record_reply(PhaseOutcome& o, std::size_t r, bool ok, const std::uint32_t* ids,
                  const float* scores, std::size_t n) {
  if (!ok || n == 0) {
    ++o.failed;
    return;
  }
  o.top1[r] = ids[0];
  if (r < o.ids.size()) {
    o.ids[r].assign(ids, ids + n);
    o.scores[r].assign(scores, scores + n);
  }
}

PhaseOutcome make_outcome(const Phase& ph) {
  PhaseOutcome o;
  o.top1.assign(ph.count, infer::InferenceEngine::kInvalidId);
  // Only requests whose queries are the reference queries keep their reply.
  if (ph.first == 0) o.ids.resize(std::min(ph.count, kReferenceQueries));
  o.scores.resize(o.ids.size());
  o.latency_us.reserve(ph.count);
  return o;
}

// Drives one phase over the wire from this thread.
PhaseOutcome run_wire_phase(std::vector<std::unique_ptr<Conn>>& conns, const Phase& ph,
                            const Queries& q) {
  PhaseOutcome o = make_outcome(ph);
  const std::size_t n = ph.count;
  std::vector<Clock::time_point> start(n);
  std::vector<std::uint8_t> payload;
  const auto interval = std::chrono::nanoseconds(
      ph.open ? static_cast<std::int64_t>(1e9 / ph.rate) : 0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t r) { return t0 + interval * static_cast<std::int64_t>(r); };

  std::size_t sent = 0, done = 0;
  Clock::time_point last_reply = t0, last_progress = Clock::now();
  std::vector<pollfd> pfds(conns.size());
  const auto on_reply = [&](std::uint32_t r, std::span<const std::uint8_t> bytes) {
    const Clock::time_point now = Clock::now();
    serve::QueryReply rep;
    const bool ok = serve::decode_reply(bytes, rep) && rep.status == serve::Status::Ok &&
                    !rep.degraded;
    record_reply(o, r, ok, rep.ids.data(), rep.scores.data(), rep.ids.size());
    if (ok) {
      o.latency_us.push_back(
          std::chrono::duration<double, std::micro>(now - start[r]).count());
    }
    last_reply = last_progress = now;
    ++done;
  };
  while (done < n) {
    Clock::time_point now = Clock::now();
    std::size_t inflight = sent - done;
    while (sent < n && (ph.open ? due(sent) <= now : inflight < kOutstanding)) {
      const data::SparseVectorView x = q.x(ph.first + sent);
      payload = serve::encode_query(x.index_span(), x.value_span(), kTopK);
      // Open loop: latency counts from the due time; lateness is reported.
      start[sent] = ph.open ? due(sent) : now;
      if (ph.open) {
        o.late_us.push_back(std::chrono::duration<double, std::micro>(now - due(sent)).count());
      }
      conns[sent % conns.size()]->send(static_cast<std::uint32_t>(sent), payload);
      ++sent;
      ++inflight;
      now = Clock::now();
    }
    // In open loop the generator polls without sleeping: a sleeping
    // thread's vCPU can be descheduled by the host, and its wake-up delay
    // would be charged to the server as latency.  In closed loop the
    // outstanding requests keep the server busy, so it sleeps on replies
    // and leaves the CPUs to the server.
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c] = {conns[c]->fd(),
                 static_cast<short>(POLLIN | (conns[c]->wants_write() ? POLLOUT : 0)), 0};
    }
    const timespec wait{0, ph.open ? 0 : 50'000'000};
    if (::ppoll(pfds.data(), pfds.size(), &wait, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (pfds[c].revents & POLLOUT) conns[c]->flush();
      if (pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) conns[c]->receive(on_reply);
    }
    if (seconds_between(last_progress, Clock::now()) > kStallSeconds && sent == n) {
      throw std::runtime_error(std::string("phase ") + ph.name + " stalled");
    }
  }
  o.seconds = seconds_between(start[0], last_reply);
  return o;
}

// Open-loop phase straight into BatchingServer::submit_async, no transport:
// the server's own share of the latency.
PhaseOutcome run_inprocess_phase(serve::BatchingServer& server, const Phase& ph,
                                 const Queries& q) {
  PhaseOutcome o = make_outcome(ph);
  const std::size_t n = ph.count;
  std::vector<double> latency(n, -1.0);
  std::vector<char> ok(n, 0);
  std::atomic<std::size_t> done{0};
  const auto interval = std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / ph.rate));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t r = 0; r < n; ++r) {
    const Clock::time_point due = t0 + interval * static_cast<std::int64_t>(r);
    while (Clock::now() < due) {
      // Spin, like the wire generator: a sleeping generator's wake-up
      // delay would be charged to the server.
    }
    server.submit_async(q.x(ph.first + r), kTopK, 0, [&, r, due](serve::Reply&& rep) {
      latency[r] = std::chrono::duration<double, std::micro>(Clock::now() - due).count();
      ok[r] = rep.status == serve::RequestStatus::Ok && !rep.degraded && !rep.ids.empty();
      done.fetch_add(1, std::memory_order_release);
    });
  }
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (done.load(std::memory_order_acquire) < n) {
    if (Clock::now() > give_up) throw std::runtime_error("in-process phase stalled");
  }
  for (std::size_t r = 0; r < n; ++r) {
    if (ok[r]) {
      o.latency_us.push_back(latency[r]);
    } else {
      ++o.failed;
    }
  }
  return o;
}

// Checks the replies to the reference queries and folds the phase into the
// run's operation counts.
void account(const Phase& ph, const PhaseOutcome& o, const Queries& q, RunResult& out) {
  PhaseCount& pc = out.phase(ph.name);
  pc.attempted += ph.count;
  pc.failed += o.failed;
  for (std::size_t r = 0; r < o.ids.size(); ++r) {
    if (o.ids[r].empty()) continue;  // failed request, already counted
    const std::vector<double>& ref = q.reference[r];
    const std::string why = ph.sampled ? check_sampled_reply(o.ids[r], o.scores[r], ref)
                                       : check_dense_reply(o.ids[r], o.scores[r], ref);
    out.checks.expect(why.empty(), std::string(ph.name) + " query " + std::to_string(r) +
                                       ": " + why);
  }
}

// Hits and answered requests for P@1 over a phase's replies.
void count_hits(const Phase& ph, const PhaseOutcome& o, const Queries& q, std::size_t& hits,
                std::size_t& answered) {
  for (std::size_t r = 0; r < o.top1.size(); ++r) {
    if (o.top1[r] == infer::InferenceEngine::kInvalidId) continue;
    const auto labels = q.test.labels(q.index(ph.first + r));
    hits += std::find(labels.begin(), labels.end(), o.top1[r]) != labels.end();
    ++answered;
  }
}

double ratio(std::size_t a, std::size_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

// Seconds of one predict_topk_batch over `xs` on `pool`, with the top-k
// ids and scores of every query.
double time_batch(infer::InferenceEngine& engine, std::span<const data::SparseVectorView> xs,
                  infer::TopKMode mode, ThreadPool& pool, std::vector<std::uint32_t>& ids,
                  std::vector<float>& scores, Tracer& tr, const char* span) {
  ids.resize(xs.size() * kTopK);
  scores.resize(xs.size() * kTopK);
  const std::uint32_t s = tr.begin(span);
  engine.predict_topk_batch(xs, kTopK, ids.data(), scores.data(), mode, &pool);
  tr.end(s);
  return tr.seconds(s);
}

// Checks the batch's answers to the reference queries (the first queries
// of the batch).
void check_batch(const char* what, bool sampled, const std::vector<std::uint32_t>& ids,
                 const std::vector<float>& scores, const Queries& q, RunResult& out) {
  for (std::size_t r = 0; r < q.reference.size() && r * kTopK < ids.size(); ++r) {
    const std::span<const std::uint32_t> row(ids.data() + r * kTopK, kTopK);
    // Rows with fewer than k candidates are padded with invalid ids.
    const auto n = static_cast<std::size_t>(
        std::find(row.begin(), row.end(), infer::InferenceEngine::kInvalidId) - row.begin());
    const std::span<const float> sc(scores.data() + r * kTopK, n);
    const std::string why = sampled ? check_sampled_reply(row.first(n), sc, q.reference[r])
                                    : check_dense_reply(row.first(n), sc, q.reference[r]);
    out.checks.expect(why.empty(), std::string(what) + " query " + std::to_string(r) + ": " +
                                       why);
  }
}

}  // namespace

void run_serving(const RunOptions& opt, const ServeInputs& in, RunResult& out) {
  const WorkloadSpec& spec = *opt.spec;
  const Rates& rates = *spec.rates;

  // --- set-up, repeated on the serving workload; the median is reported --
  const bool timed_setup = spec.kind == Kind::XcServe;
  std::unique_ptr<ServeState> st;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (timed_setup ? kSetupRepeats : 1); ++rep) {
    st.reset();  // the destructor tears the state down in reverse order
    const Clock::time_point t0 = Clock::now();
    st = std::make_unique<ServeState>();
    st->model =
        std::make_unique<infer::PackedModel>(infer::PackedModel::load_file(in.model_path));
    st->engine = std::make_unique<infer::InferenceEngine>(*st->model);
    st->pool = std::make_unique<ThreadPool>(2);
    st->dense = std::make_unique<serve::BatchingServer>(
        *st->engine, server_config(*st->pool, infer::TopKMode::Dense));
    st->sampled = std::make_unique<serve::BatchingServer>(
        *st->engine, server_config(*st->pool, infer::TopKMode::Sampled));
    serve::TransportConfig tc;
    tc.reactors = 1;
    st->dense_tx = std::make_unique<serve::EpollServer>(*st->dense, tc);
    st->sampled_tx = std::make_unique<serve::EpollServer>(*st->sampled, tc);
    st->dense_tx->start();
    st->sampled_tx->start();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (timed_setup) out.add("setup_s", median(setup_s), "s");

  // --- queries and their independent reference scores (untimed) ---------
  Queries q;
  q.test = data::read_xc_file(in.test_path);
  q.order.resize(q.test.size());
  for (std::size_t i = 0; i < q.order.size(); ++i) q.order[i] = static_cast<std::uint32_t>(i);
  Rng rng(0x5E87Eull);
  for (std::size_t i = q.order.size(); i > 1; --i) {
    std::swap(q.order[i - 1], q.order[rng.uniform_u64(i)]);
  }
  for (std::size_t r = 0; r < std::min(kReferenceQueries, q.order.size()); ++r) {
    q.reference.push_back(reference_logits(*st->model, q.x(r)));
  }

  // --- warm-up through the blocking client, both servers ----------------
  for (serve::EpollServer* tx : {st->dense_tx.get(), st->sampled_tx.get()}) {
    serve::TcpClient client("127.0.0.1", tx->port());
    PhaseCount& pc = out.phase("warmup");
    for (std::size_t r = 0; r < kWarmupQueries; ++r) {
      serve::QueryReply rep;
      ++pc.attempted;
      if (!client.query(q.x(r), kTopK, rep) || rep.status != serve::Status::Ok ||
          rep.degraded) {
        ++pc.failed;
      }
    }
  }

  // --- phase sizes, from --seconds at the nominal rates -----------------
  // The phases run in kRounds interleaved rounds, so each metric samples
  // the whole serving period.  Latency percentiles pool every round's
  // samples; queries/s is the median over rounds (wire) or over batches
  // (engine).
  const double t = opt.seconds * spec.serve_share / kRounds;
  const auto count = [&](double rate, double share, std::size_t floor_n) {
    if (opt.tiny) return std::size_t{40};
    return std::max(floor_n, static_cast<std::size_t>(rate * share * t + 0.5));
  };
  // The busy phase keeps at least 1000 samples over all rounds, so its
  // pooled p99 has ten beyond it.
  Phase light{"light", true, rates.light, count(rates.light, 0.15, 20), false};
  Phase busy{"busy", true, rates.busy, count(rates.busy, 0.25, 1000 / kRounds), false};
  Phase dense{"dense", false, 0, count(rates.wire_dense, 0.15, 100), false};
  Phase sampled{"sampled", false, 0, count(rates.wire_sampled, 0.1, 100), true};

  // The engine phase: one fixed batch (the first queries of the order, so
  // the reference queries lead it), the same work on every repeat.
  const std::size_t nb = std::min(q.test.size(), opt.tiny ? 32 : kEngineBatch);
  std::vector<data::SparseVectorView> xs(nb);
  for (std::size_t r = 0; r < nb; ++r) xs[r] = q.x(r);
  const auto batches = [&](double rate, double share) {
    if (opt.tiny) return std::size_t{2};
    return std::max<std::size_t>(3, static_cast<std::size_t>(rate * share * t / nb + 0.5));
  };
  const std::size_t engine_dense_n = batches(rates.engine_dense, 0.2);
  const std::size_t engine_sampled_n = batches(rates.engine_sampled, 0.15);

  std::vector<std::unique_ptr<Conn>> dense_conns, sampled_conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    dense_conns.push_back(std::make_unique<Conn>(st->dense_tx->port()));
    sampled_conns.push_back(std::make_unique<Conn>(st->sampled_tx->port()));
  }

  Tracer tracer;
  const auto traced_phase = [&](const char* span, auto&& fn) {
    const std::uint32_t s = tracer.begin(span);
    PhaseOutcome o = fn();
    tracer.end(s);
    return o;
  };
  struct Rounds {
    std::vector<double> qps, late;
    std::vector<double> latency_us;  // pooled
    std::size_t hits = 0, answered = 0;
  };
  Rounds r_light, r_busy, r_dense, r_sampled;
  std::uint64_t dense_completed = 0, dense_batches = 0;
  const auto fold = [&](Phase& ph, const PhaseOutcome& o, Rounds& r) {
    account(ph, o, q, out);
    count_hits(ph, o, q, r.hits, r.answered);
    r.latency_us.insert(r.latency_us.end(), o.latency_us.begin(), o.latency_us.end());
    r.late.insert(r.late.end(), o.late_us.begin(), o.late_us.end());
    r.qps.push_back(static_cast<double>(ph.count) / o.seconds);
    ph.first += ph.count;  // the next round sends the next queries
  };
  std::vector<double> engine_dense_s, engine_sampled_s;
  std::vector<std::uint32_t> dense_ids, sampled_ids;
  std::vector<float> dense_scores, sampled_scores;
  const auto engine_phase = [&](infer::TopKMode mode, std::size_t n,
                                std::vector<std::uint32_t>& ids, std::vector<float>& scores,
                                std::vector<double>& secs) {
    const bool is_sampled = mode == infer::TopKMode::Sampled;
    const char* name = is_sampled ? "engine_sampled" : "engine_dense";
    for (std::size_t b = 0; b < n; ++b) {
      secs.push_back(time_batch(*st->engine, xs, mode, *st->pool, ids, scores, tracer, name));
      // Every answer must be whole; the reference queries are re-scored.
      std::uint64_t failed = 0;
      for (std::size_t r = 0; r < nb; ++r) failed += ids[r * kTopK] == infer::InferenceEngine::kInvalidId;
      out.phase(name).attempted += nb;
      out.phase(name).failed += failed;
      if (b == 0) check_batch(name, is_sampled, ids, scores, q, out);
    }
  };
  for (std::size_t round = 0; round < kRounds; ++round) {
    fold(light, traced_phase("serve.light",
                             [&] { return run_wire_phase(dense_conns, light, q); }),
         r_light);
    fold(busy, traced_phase("serve.busy", [&] { return run_wire_phase(dense_conns, busy, q); }),
         r_busy);
    const serve::ServerStats before = st->dense->stats();
    fold(dense,
         traced_phase("serve.dense", [&] { return run_wire_phase(dense_conns, dense, q); }),
         r_dense);
    const serve::ServerStats after = st->dense->stats();
    dense_completed += after.completed - before.completed;
    dense_batches += after.batches - before.batches;
    fold(sampled,
         traced_phase("serve.sampled", [&] { return run_wire_phase(sampled_conns, sampled, q); }),
         r_sampled);
    engine_phase(infer::TopKMode::Dense, engine_dense_n, dense_ids, dense_scores,
                 engine_dense_s);
    engine_phase(infer::TopKMode::Sampled, engine_sampled_n, sampled_ids, sampled_scores,
                 engine_sampled_s);
  }

  for (const serve::BatchingServer* s : {st->dense.get(), st->sampled.get()}) {
    const serve::ServerStats ss = s->stats();
    out.checks.expect(ss.rejected + ss.shed + ss.expired + ss.degraded + ss.errors == 0,
                      "server reported rejected, shed, expired, degraded or failed requests");
  }

  // Serving speed swings with host contention far more than training does:
  // over loopback by 10-50% between runs, and the engine's batches on two
  // threads by up to 26%, against 5-13% for training on one thread.  So it
  // is reported with the per-layer metrics, unbounded; the quality of the
  // answers is gated end to end.
  const double light_p50 = quantile(r_light.latency_us, 0.5);
  const double busy_p50 = quantile(r_busy.latency_us, 0.5);
  const double busy_p99 = quantile(r_busy.latency_us, 0.99);
  const double engine_dense_qps = static_cast<double>(nb) / median(engine_dense_s);
  const double engine_sampled_qps = static_cast<double>(nb) / median(engine_sampled_s);
  std::printf("serve: %zu rounds of light=%zu busy=%zu dense=%zu sampled=%zu requests, "
              "engine %zu+%zu batches of %zu; light p50=%.1fus busy p50=%.1fus p99=%.1fus "
              "dense=%.1f/s sampled=%.1f/s engine dense=%.1f/s sampled=%.1f/s; "
              "generator lateness p99=%.1fus\n",
              kRounds, light.count, busy.count, dense.count, sampled.count, engine_dense_n,
              engine_sampled_n, nb, light_p50, busy_p50, busy_p99, median(r_dense.qps),
              median(r_sampled.qps), engine_dense_qps, engine_sampled_qps,
              quantile(r_busy.late, 0.99));

  out.add("serve_p_at_1",
          ratio(r_light.hits + r_busy.hits + r_dense.hits,
                r_light.answered + r_busy.answered + r_dense.answered),
          "ratio");
  out.add("serve_sampled_p_at_1", ratio(r_sampled.hits, r_sampled.answered), "ratio");
  out.add_layer("serve.light_p50_us", light_p50, "us");
  out.add_layer("serve.busy_p50_us", busy_p50, "us");
  out.add_layer("serve.busy_p99_us", busy_p99, "us");
  out.add_layer("serve.qps", median(r_dense.qps), "1/s");
  out.add_layer("serve.sampled_qps", median(r_sampled.qps), "1/s");

  if (!opt.trace) return;

  // --- traced extras: in-process latency and the engine on one thread ---
  light.first = busy.first = 0;
  const PhaseOutcome i_light =
      traced_phase("serve.inprocess_light",
                   [&] { return run_inprocess_phase(*st->dense, light, q); });
  const PhaseOutcome i_busy = traced_phase(
      "serve.inprocess_busy", [&] { return run_inprocess_phase(*st->dense, busy, q); });
  out.phase("inprocess").attempted += light.count + busy.count;
  out.phase("inprocess").failed += i_light.failed + i_busy.failed;

  ThreadPool one(1);
  std::vector<double> one_thread_s;
  std::vector<std::uint32_t> one_ids;
  std::vector<float> one_scores;
  for (int rep = 0; rep < 3; ++rep) {
    one_thread_s.push_back(time_batch(*st->engine, xs, infer::TopKMode::Dense, one, one_ids,
                                      one_scores, tracer, "engine_dense_1thread"));
  }
  out.phase("engine_dense").attempted += 3 * nb;
  out.checks.expect(one_ids == dense_ids, "dense batch on one thread answers as on two");
  std::size_t agree = 0;
  for (std::size_t r = 0; r < nb; ++r) agree += dense_ids[r * kTopK] == sampled_ids[r * kTopK];

  out.add_layer("lsh.sampled_top1_agreement", ratio(agree, nb), "ratio");
  out.add_layer("threading.engine_speedup", median(one_thread_s) / median(engine_dense_s),
                "ratio");
  out.add_layer("infer.dense_us_per_query", 1e6 / engine_dense_qps, "us");
  out.add_layer("infer.sampled_us_per_query", 1e6 / engine_sampled_qps, "us");
  out.add_layer("serve.server_us", quantile(i_busy.latency_us, 0.5), "us");
  out.add_layer("serve.wire_us",
                quantile(r_light.latency_us, 0.5) - quantile(i_light.latency_us, 0.5), "us");
  out.add_layer("serve.batch_size",
                dense_batches > 0 ? static_cast<double>(dense_completed) /
                                        static_cast<double>(dense_batches)
                                  : 0.0,
                "count");
  out.add_layer("serve.generator_late_us", quantile(r_busy.late, 0.99), "us");
  tracer.write_csv(opt.out_dir + "/" + spec.name + "-serve-spans.csv");
}

}  // namespace slidebench
