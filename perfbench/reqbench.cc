// Request-path load generator and tracer for the repository benchmark
// (BENCHMARK.json; run through perfbench/run.py, which builds this file,
// runs it and turns its raw record into the reported metrics).
//
//   km_reqbench --workload hot|cold|reload --seed N --seconds S
//               --trace 0|1 --out RAW.json --workdir DIR
//
// Serving path: tenants are loaded from snapshot files into a
// TenantRegistry behind a NetServer on a loopback port — the
// `keymantic_cli --serve --tenant=ID=SNAPSHOT` configuration — and driven
// over real TCP by NetClients dialed with TCP_NODELAY.
//
// Load: an open loop sends one fixed-rate stream (the rate is a constant
// of the workload, never derived from the run's own speed) round-robin
// over its connections, from one sender thread, while one reader thread
// polls them all; latency is timed from each request's scheduled send. A
// closed loop measures throughput with a fixed connection count. Every
// reply is then checked against an in-process engine replaying the same
// requests in the same order.
//
// With --trace 1 the run adds, after the same untraced run, three
// replays of the workload on fresh tenants loaded from the same snapshots
// (so cache state matches): traced over the wire, in process through
// TenantRegistry::Submit at the same schedule, and serially through
// KeymanticEngine::Answer plus the public stage functions it is built
// from. Spans are recorded around those calls only — nothing inside the
// library is instrumented — kept in memory and written out at exit. The
// engine replay also checks every wire reply byte for byte.
//
// This program only measures; run.py computes percentiles, ratios and
// self times from the raw record.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/keymantic.h"
#include "core/prepared_state.h"
#include "datasets/mondial.h"
#include "datasets/scaling.h"
#include "graph/interpretation.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/tenant.h"
#include "snapshot/snapshot.h"
#include "text/tokenizer.h"
#include "workload/workload.h"

namespace {

using namespace km;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ constants

/// The fixed shape of one workload. Rates are absolute offered loads.
struct WorkloadSpec {
  const char* name;
  double open_qps;      ///< offered rate of the mondial open loop
  size_t open_conns;    ///< connections the open loop spreads over
  double open_share;    ///< share of --seconds spent in the open loop
  size_t closed_conns;  ///< connections of the closed (throughput) loop
  bool distinct;        ///< every request a distinct query (cold caches)
  bool big;             ///< second tenant "big" + reloads under traffic
  size_t reloads;       ///< reloads of "big" at fixed offsets (reload only)
  size_t setup_reps;    ///< set-ups timed per run (median reported)
};

// Per-connection send intervals are kept near the server's 2 ms reply-poll
// cadence (hot 2.5 ms, reload 3.3 ms): there a reply held by the server's
// Nagle until the client's next packet costs about what the poll costs,
// whereas at intervals of 5-40 ms runs fall into that hold at random
// points and latency turns bimodal. cold's 167 ms interval lies above the
// 40 ms delayed-ACK timeout, where a hold ends after one reply.
constexpr WorkloadSpec kWorkloads[] = {
    {"hot", 800.0, 2, 0.6, 4, false, false, 0, 5},
    {"cold", 24.0, 4, 0.75, 4, true, false, 0, 5},
    {"reload", 300.0, 1, 1.0, 1, false, true, 3, 5},
};

constexpr uint32_t kAnswersPerQuery = 10;  // k of every QURY
constexpr size_t kHotPool = 64;            // distinct queries behind "hot"
// "cold" answers this many other distinct queries before timing, so that
// it measures distinct-query traffic, not the empty-cache transient of the
// first second (set-up and reload time that one).
constexpr size_t kColdWarm = 100;
constexpr double kZipfS = 1.0;
constexpr size_t kBigKeywords = 100;       // distinct queries behind "big"
constexpr size_t kIdleReloads = 51;        // hot/cold: reload_ms samples
constexpr double kReplyGraceMs = 20000;    // wait for stragglers past a phase
constexpr uint64_t kClosedRidBase = 1'000'000'000ull;
constexpr const char* kProbeQuery = "country";  // set-up's first RESP

// 400 relations × 5 attributes plus 120 link relations: 5,240 terms.
ScalingOptions BigSchemaOptions() {
  ScalingOptions opts;
  opts.num_relations = 400;
  opts.attributes_per_relation = 5;
  return opts;
}

// ---------------------------------------------------------------- clock

const Clock::time_point g_epoch = Clock::now();

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - g_epoch)
      .count();
}

void SleepUntilMs(double t_ms) {
  std::this_thread::sleep_until(
      g_epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(t_ms)));
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "km_reqbench: %s\n", what.c_str());
  std::exit(2);
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double UnitDouble(Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
}

// -------------------------------------------------------------- inputs

struct Query {
  std::string tenant;  ///< "mondial" or "big"
  std::string text;
  std::string gold;    ///< gold SQL signature (mondial); empty for big
  int id = -1;         ///< distinct-query number (mondial); -1 for big
};

std::string QueryText(const std::vector<std::string>& keywords) {
  std::string text;
  for (const std::string& kw : keywords) {
    if (!text.empty()) text += ' ';
    text += kw.find(' ') != std::string::npos ? '"' + kw + '"' : kw;
  }
  return text;
}

/// Distinct generator queries over mondial, deduplicated by text so that
/// "distinct" means distinct work. The order is stratified by template:
/// each template's queries are shuffled by `seed`, then the templates take
/// turns, so any prefix of the list holds every template in equal shares
/// and seeds differ in the queries drawn, not in the template mix.
std::vector<Query> MondialQueries(const Database& db, uint64_t seed,
                                  size_t per_template) {
  Terminology terminology(db.schema());
  SchemaGraph unit_graph(terminology, db.schema());
  WorkloadOptions opts;
  opts.queries_per_template = per_template;
  opts.seed = seed;
  WorkloadGenerator gen(db, terminology, unit_graph, opts);
  auto generated = gen.Generate(MondialTemplates());
  Require(generated.status(), "workload generation");
  std::map<size_t, std::vector<Query>> by_template;
  std::set<std::string> seen;
  for (const WorkloadQuery& q : *generated) {
    std::string text = QueryText(q.keywords);
    if (!seen.insert(text).second) continue;
    by_template[q.template_index].push_back(
        {"mondial", std::move(text), q.gold_sql_signature});
  }
  Rng rng(seed ^ 0x5eedull);
  for (auto& [t, queries] : by_template) {
    for (size_t i = queries.size(); i > 1; --i) {
      std::swap(queries[i - 1], queries[rng.Uniform(i)]);
    }
  }
  std::vector<Query> out;
  for (size_t round = 0; out.size() < seen.size(); ++round) {
    for (auto& [t, queries] : by_template) {
      if (round < queries.size()) out.push_back(std::move(queries[round]));
    }
  }
  for (size_t i = 0; i < out.size(); ++i) out[i].id = static_cast<int>(i);
  return out;
}

/// One-keyword queries over the big schema: relation names, attribute
/// names and instance values that tokenize to exactly one keyword
/// (stopword-only inputs are rejected by the engine by design, and
/// multi-word values would not be one-keyword queries).
std::vector<std::string> BigVocabulary(const Database& db,
                                       const TokenizerOptions& tok) {
  std::set<std::string> words;
  for (const RelationSchema& rel : db.schema().relations()) {
    words.insert(rel.name());
    for (const AttributeDef& attr : rel.attributes()) words.insert(attr.name);
  }
  size_t values = 0;
  for (const RelationSchema& rel : db.schema().relations()) {
    const Table* table = db.FindTable(rel.name());
    if (table == nullptr || table->rows().empty()) continue;
    for (const Value& v : table->rows().front()) {
      if (!v.is_text() || v.AsText().empty() || v.is_date()) continue;
      words.insert(v.AsText());
      if (++values >= 200) break;
    }
    if (values >= 200) break;
  }
  std::vector<std::string> out;
  for (const std::string& w : words) {
    if (w.find('"') != std::string::npos) continue;
    if (!ValidateQueryText(w).ok() || Tokenize(w, tok).size() != 1) continue;
    out.push_back(w);
  }
  return out;
}

// ------------------------------------------------------------- records

enum Outcome : uint8_t {
  kOk = 0,
  kErrr = 1,
  kRtry = 2,
  kLost = 3,
  kDegraded = 4,
  kMismatch = 5,
};

/// One request as the generator saw it. Times are ms on the run clock.
struct Record {
  uint64_t rid = 0;
  const Query* query = nullptr;
  uint16_t conn = 0;
  uint8_t outcome = kLost;
  double due_ms = 0;   ///< scheduled send (closed loop: actual send)
  double sent_ms = 0;
  double done_ms = -1;
  uint64_t payload_hash = 0;
  double rr = -1;      ///< reciprocal rank of the gold SQL (-1: no gold)
  std::string payload; ///< RESP payload (kept only when tracing)
};

/// Classifies a terminal frame into `rec` (reply time already stamped).
void Classify(const net::Frame& frame, bool keep_payload, Record* rec) {
  if (net::FrameIs(frame, "RTRY")) {
    rec->outcome = kRtry;
    return;
  }
  if (!net::FrameIs(frame, "RESP")) {
    rec->outcome = kErrr;
    return;
  }
  rec->payload_hash = Fnv1a(frame.payload);
  if (keep_payload) rec->payload = frame.payload;
  auto reply = net::DecodeAnswerReply(frame.payload);
  if (!reply.ok()) {
    rec->outcome = kErrr;
    return;
  }
  rec->outcome = reply->quality == static_cast<uint8_t>(ResultQuality::kComplete)
                     ? kOk
                     : kDegraded;
  if (!rec->query->gold.empty()) {
    rec->rr = 0;
    for (size_t i = 0; i < reply->answers.size(); ++i) {
      if (reply->answers[i].sql == rec->query->gold) {
        rec->rr = 1.0 / static_cast<double>(i + 1);
        break;
      }
    }
  }
}

/// The RESP payload the server sends for an in-process result.
std::string ReplyPayload(const AnswerResult& result) {
  net::AnswerReply reply;
  reply.quality = static_cast<uint8_t>(result.quality);
  for (const Explanation& ex : result.explanations) {
    reply.answers.push_back({ex.score, ex.sql.CanonicalSignature()});
  }
  return net::EncodeAnswerReply(reply);
}

/// Classifies an in-process result as the wire would have delivered it.
void ClassifyResult(const StatusOr<AnswerResult>& result, bool keep_payload,
                    Record* rec) {
  if (!result.ok()) {
    const StatusCode code = result.status().code();
    rec->outcome = code == StatusCode::kOverloaded ||
                           code == StatusCode::kUnavailable
                       ? kRtry
                       : kErrr;
    return;
  }
  net::Frame frame = net::MakeFrame("RESP", rec->rid, ReplyPayload(*result));
  Classify(frame, keep_payload, rec);
}

// ---------------------------------------------------------------- spans

/// One timed call. Spans of one request share its request id; `parent`
/// links a call to the call that contains it (0: none).
struct Span {
  uint64_t rid;
  uint32_t id;
  uint32_t parent;
  const char* name;
  double start_ms;
  double end_ms;
};

class SpanLog {
 public:
  uint32_t Add(uint64_t rid, uint32_t parent, const char* name,
               double start_ms, double end_ms) {
    spans_.push_back({rid, next_id_, parent, name, start_ms, end_ms});
    return next_id_++;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  uint32_t next_id_ = 1;
};

// ------------------------------------------------------------- serving

int DialNoDelay(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    Die("connect failed");
  }
  return fd;
}

std::unique_ptr<net::NetClient> OpenClient(uint16_t port,
                                           const std::string& tenant) {
  auto client = std::make_unique<net::NetClient>(DialNoDelay(port));
  Require(client->Hello(tenant), "HELO " + tenant);
  return client;
}

/// Databases and snapshot files shared by every set-up of the run.
struct Fixture {
  std::unique_ptr<Database> mondial;
  std::unique_ptr<Database> big;
  TokenizerOptions big_tokenizer;
  std::string mondial_snap;
  std::string big_snap;
};

/// One serving stack: registry (+ front end when `wire`).
struct Stack {
  TenantRegistry registry;
  std::unique_ptr<net::NetServer> server;
  uint16_t port = 0;

  ~Stack() {
    if (server != nullptr) server->Shutdown();
    registry.Shutdown();
  }
};

/// Registers the workload's tenants from their snapshots and (over the
/// wire) starts the front end, then waits for the first RESP of the
/// probe query. Returns the seconds that took — the set-up time.
double SetUp(const Fixture& fx, bool wire, Stack* stack) {
  const double t0 = NowMs();
  Require(stack->registry.AddTenantFromSnapshot("mondial", *fx.mondial,
                                                fx.mondial_snap),
          "load mondial");
  if (fx.big != nullptr) {
    Require(stack->registry.AddTenantFromSnapshot("big", *fx.big, fx.big_snap),
            "load big");
  }
  if (wire) {
    net::NetServerOptions options;
    options.port = 0;
    stack->server = std::make_unique<net::NetServer>(stack->registry, options);
    Require(stack->server->Start(), "NetServer::Start");
    stack->port = stack->server->port();
    auto client = OpenClient(stack->port, "mondial");
    Require(client->SendQuery(1, kProbeQuery, kAnswersPerQuery, 0), "probe");
    auto frame = client->ReadFrame(60000);
    if (!frame.ok() || !net::FrameIs(*frame, "RESP")) Die("probe failed");
  } else {
    auto result =
        stack->registry.Submit("mondial", kProbeQuery, kAnswersPerQuery).get();
    Require(result.status(), "probe");
  }
  return (NowMs() - t0) / 1000.0;
}

/// Opens `conns` connections to `tenant` and answers every `warm` query
/// once on each, sequentially, so that the caches hold them and each
/// connection has carried the workload's replies before timing.
std::vector<std::unique_ptr<net::NetClient>> OpenWarmClients(
    uint16_t port, size_t conns, const std::string& tenant,
    const std::vector<Query>& warm) {
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (size_t c = 0; c < conns; ++c) {
    clients.push_back(OpenClient(port, tenant));
    uint64_t rid = 1;
    for (const Query& q : warm) {
      Require(clients.back()->SendQuery(rid++, q.text, kAnswersPerQuery, 0),
              "warm-up");
      if (!clients.back()->ReadFrame(60000).ok()) Die("warm-up reply lost");
    }
  }
  return clients;
}

void WarmUpInProcess(TenantRegistry& registry,
                     const std::vector<Query>& queries) {
  for (const Query& q : queries) {
    (void)registry.Submit(q.tenant, q.text, kAnswersPerQuery).get();
  }
}

// ----------------------------------------------------------- open loop

/// Open-loop schedule over `stream`: request i is due at t0 + i/rate on
/// connection i % conns, whatever the replies do.
std::vector<Record> Schedule(const std::vector<Query>& stream, double rate,
                             size_t conns, double t0_ms) {
  std::vector<Record> recs(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    recs[i].rid = i + 1;
    recs[i].query = &stream[i];
    recs[i].conn = static_cast<uint16_t>(i % conns);
    recs[i].due_ms = t0_ms + 1000.0 * static_cast<double>(i) / rate;
  }
  return recs;
}

/// Runs the schedule over `clients`: this thread sends, one reader thread
/// polls every connection and drains each readable one's complete frames.
void RunOpenLoopWire(std::vector<std::unique_ptr<net::NetClient>>& clients,
                     bool keep_payloads, std::vector<Record>* recs) {
  const double end_ms = recs->back().due_ms + kReplyGraceMs;
  std::thread reader([&] {
    std::vector<pollfd> fds;
    for (const auto& client : clients) fds.push_back({client->fd(), POLLIN, 0});
    for (size_t got = 0; got < recs->size();) {
      const double left_ms = end_ms - NowMs();
      if (left_ms <= 0) return;  // unanswered requests stay kLost
      if (poll(fds.data(), fds.size(),
               static_cast<int>(std::min(left_ms, 100.0)) + 1) < 0 &&
          errno != EINTR) {
        return;
      }
      for (size_t c = 0; c < fds.size(); ++c) {
        if (fds[c].fd < 0 || fds[c].revents == 0) continue;
        while (true) {
          auto frame = clients[c]->ReadFrame(0);
          if (!frame.ok()) {
            // Timeout: no complete frame buffered. Anything else: the
            // connection is gone; its requests stay kLost.
            if (frame.status().code() != StatusCode::kDeadlineExceeded) {
              fds[c].fd = -1;
            }
            break;
          }
          const double now = NowMs();
          if (frame->request_id == 0 || frame->request_id > recs->size()) {
            continue;
          }
          Record& rec = (*recs)[frame->request_id - 1];
          rec.done_ms = now;
          Classify(*frame, keep_payloads, &rec);
          ++got;
        }
      }
    }
  });
  for (Record& rec : *recs) {
    SleepUntilMs(rec.due_ms);
    rec.sent_ms = NowMs();
    if (!clients[rec.conn]
             ->SendQuery(rec.rid, rec.query->text, kAnswersPerQuery, 0)
             .ok()) {
      break;
    }
  }
  reader.join();
}

/// The same schedule through TenantRegistry::Submit; one harvester
/// thread stamps each future when it becomes ready.
void RunOpenLoopInProcess(TenantRegistry& registry, std::vector<Record>* recs) {
  struct Pending {
    size_t index;
    std::future<StatusOr<AnswerResult>> future;
  };
  Mutex mu;
  std::vector<Pending> inbox;  // guarded by mu
  std::atomic<bool> sender_done{false};
  std::thread harvester([&] {
    std::vector<Pending> outstanding;
    while (true) {
      {
        MutexLock lock(mu);
        for (Pending& p : inbox) outstanding.push_back(std::move(p));
        inbox.clear();
      }
      if (outstanding.empty()) {
        if (sender_done.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      bool any = false;
      for (size_t i = 0; i < outstanding.size();) {
        if (outstanding[i].future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        Record& rec = (*recs)[outstanding[i].index];
        rec.done_ms = NowMs();
        ClassifyResult(outstanding[i].future.get(), false, &rec);
        outstanding.erase(outstanding.begin() + static_cast<ptrdiff_t>(i));
        any = true;
      }
      if (!any && !outstanding.empty()) {
        outstanding.front().future.wait_for(std::chrono::microseconds(50));
      }
    }
  });
  for (size_t i = 0; i < recs->size(); ++i) {
    Record& rec = (*recs)[i];
    SleepUntilMs(rec.due_ms);
    rec.sent_ms = NowMs();
    auto future = registry.Submit(rec.query->tenant, rec.query->text,
                                  kAnswersPerQuery);
    MutexLock lock(mu);
    inbox.push_back({i, std::move(future)});
  }
  sender_done.store(true);
  harvester.join();
}

// --------------------------------------------------------- closed loop

/// Closed loop: `conns` threads each send their next query only after the
/// previous reply, drawing from `stream` in order, until `end_ms`.
/// Transport: `port` != 0 → wire, else `registry` in process.
std::vector<Record> RunClosedLoop(uint16_t port, TenantRegistry* registry,
                                  const std::vector<Query>& stream,
                                  size_t conns, double end_ms,
                                  bool keep_payloads,
                                  std::atomic<size_t>* next) {
  std::vector<std::vector<Record>> per_thread(conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<net::NetClient> client;
      if (port != 0) client = OpenClient(port, stream.front().tenant);
      while (NowMs() < end_ms) {
        const size_t j = next->fetch_add(1);
        if (j >= stream.size()) return;
        Record rec;
        rec.rid = kClosedRidBase + j;
        rec.query = &stream[j];
        rec.conn = static_cast<uint16_t>(c);
        rec.due_ms = rec.sent_ms = NowMs();
        if (client != nullptr) {
          if (client->SendQuery(rec.rid, rec.query->text, kAnswersPerQuery, 0)
                  .ok()) {
            auto frame = client->ReadFrame(kReplyGraceMs);
            rec.done_ms = NowMs();
            if (frame.ok() && frame->request_id == rec.rid) {
              Classify(*frame, keep_payloads, &rec);
            }
          }
        } else {
          auto result = registry->Submit(rec.query->tenant, rec.query->text,
                                         kAnswersPerQuery)
                            .get();
          rec.done_ms = NowMs();
          ClassifyResult(result, false, &rec);
        }
        const bool lost = rec.outcome == kLost;
        per_thread[c].push_back(std::move(rec));
        if (lost) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Record> out;
  for (auto& v : per_thread) {
    for (Record& r : v) out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.rid < b.rid; });
  return out;
}

// ---------------------------------------------------------- the phases

struct PhaseResult {
  std::vector<Record> open;
  std::vector<Record> closed;
  double open_t0_ms = 0;
  double closed_t0_ms = 0;
  double closed_end_ms = 0;
  std::vector<double> reload_ms;
  /// Big-stream positions (requests started) at each swap, for replay.
  std::vector<size_t> reload_at;
};

struct Inputs {
  const WorkloadSpec* spec;
  double seconds;
  std::vector<Query> warm;    ///< answered once before timing
  std::vector<Query> open;    ///< the open-loop stream
  std::vector<Query> closed;  ///< the closed-loop stream
};

/// Runs the workload's timed phases against `stack` (wire when it has a
/// port, in process otherwise).
PhaseResult RunPhases(const Inputs& in, const Fixture& fx, Stack& stack,
                      bool keep_payloads) {
  const WorkloadSpec& spec = *in.spec;
  const bool wire = stack.port != 0;
  PhaseResult out;
  std::vector<std::unique_ptr<net::NetClient>> clients;
  if (wire) {
    clients = OpenWarmClients(stack.port, spec.open_conns, "mondial", in.warm);
  } else {
    WarmUpInProcess(stack.registry, in.warm);
  }
  const double open_s = in.seconds * spec.open_share;
  out.open_t0_ms = NowMs() + 20;
  out.open = Schedule(in.open, spec.open_qps, spec.open_conns, out.open_t0_ms);
  out.open.resize(std::min(
      out.open.size(),
      static_cast<size_t>(std::llround(open_s * spec.open_qps))));
  auto open_loop = [&] {
    if (wire) {
      RunOpenLoopWire(clients, keep_payloads, &out.open);
    } else {
      RunOpenLoopInProcess(stack.registry, &out.open);
    }
  };
  std::atomic<size_t> next{0};
  if (!spec.big) {
    open_loop();
    out.closed_t0_ms = NowMs();
    out.closed_end_ms = out.closed_t0_ms + 1000.0 * (in.seconds - open_s);
    out.closed = RunClosedLoop(stack.port, &stack.registry, in.closed,
                               spec.closed_conns, out.closed_end_ms,
                               keep_payloads, &next);
    return out;
  }
  // reload: the big closed loop and the reloads run alongside the open loop.
  out.closed_t0_ms = out.open_t0_ms;
  out.closed_end_ms = out.open_t0_ms + 1000.0 * in.seconds;
  std::vector<Record> closed;
  std::thread closed_loop([&] {
    SleepUntilMs(out.closed_t0_ms);
    closed = RunClosedLoop(stack.port, &stack.registry, in.closed,
                           spec.closed_conns, out.closed_end_ms, keep_payloads,
                           &next);
  });
  std::thread reloader([&] {
    for (size_t r = 0; r < spec.reloads; ++r) {
      SleepUntilMs(out.open_t0_ms + 1000.0 * in.seconds *
                                        static_cast<double>(r + 1) /
                                        static_cast<double>(spec.reloads + 1));
      ReloadReport report;
      const double t = NowMs();
      Require(stack.registry.ReloadTenantSnapshot("big", fx.big_snap,
                                                  /*require_swap=*/true,
                                                  &report),
              "reload big");
      out.reload_ms.push_back(NowMs() - t);
      out.reload_at.push_back(next.load());
    }
  });
  open_loop();
  reloader.join();
  closed_loop.join();
  out.closed = std::move(closed);
  return out;
}

// -------------------------------------------------------- verification

/// (differing, checked): distinct queries whose served answer differs
/// from the answer of a fresh engine (empty caches) loaded from the same
/// snapshot. Answers should not depend on cache state; this counts those
/// that do. The queries are split over three threads, one engine each.
std::pair<size_t, size_t> ColdEngineDisagreements(
    const Fixture& fx, const std::vector<const Record*>& recs) {
  std::map<std::pair<std::string, std::string>, const Record*> first;
  for (const Record* r : recs) {
    if (r->outcome != kOk) continue;
    first.emplace(std::make_pair(r->query->tenant, r->query->text), r);
  }
  std::vector<const Record*> todo;
  for (const auto& [key, r] : first) todo.push_back(r);
  auto mondial = LoadSnapshot(fx.mondial_snap);
  Require(mondial.status(), "load mondial snapshot");
  std::shared_ptr<const PreparedState> big;
  if (fx.big != nullptr) {
    auto loaded = LoadSnapshot(fx.big_snap);
    Require(loaded.status(), "load big snapshot");
    big = *loaded;
  }
  constexpr size_t kThreads = 3;
  std::atomic<size_t> differ{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto m = KeymanticEngine::FromPreparedState(*fx.mondial, *mondial);
      Require(m.status(), "mondial engine");
      std::unique_ptr<KeymanticEngine> b;
      if (big != nullptr) {
        auto eb = KeymanticEngine::FromPreparedState(*fx.big, big);
        Require(eb.status(), "big engine");
        b = std::move(*eb);
      }
      for (size_t i = t; i < todo.size(); i += kThreads) {
        const Query& q = *todo[i]->query;
        const KeymanticEngine& engine = q.tenant == "big" ? *b : **m;
        auto result = engine.Answer(q.text, kAnswersPerQuery);
        if (!result.ok() ||
            Fnv1a(ReplyPayload(*result)) != todo[i]->payload_hash) {
          differ.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return {differ.load(), todo.size()};
}

// --------------------------------------------------------- engine replay

struct ReplayCounters {
  uint64_t row_hits = 0, row_misses = 0;
  uint64_t steiner_hits = 0, steiner_misses = 0;
  uint64_t queries = 0;
  /// Served answers that differ from the same-order replay but equal the
  /// answer of an engine with empty caches: the engine's answer depended
  /// on the order concurrent requests filled its caches in.
  uint64_t order_dependent = 0;
};

/// Serial replay of one tenant's requests on engines loaded from the
/// tenant's snapshot, in the order the server received them, so that the
/// caches go through the same states as the served tenant's:
///   * `answer` runs KeymanticEngine::Answer — the oracle every RESP must
///     equal (canonical SQL, score bit pattern, quality);
///   * with `decompose`, the public stage calls Answer is made of are
///     timed on their own: `build` and `conf` are twins that see the same
///     keyword sequence, so WeightMatrixBuilder::Build on one and
///     Configurations (which runs its own Build) on the other meet the
///     same cache state; Steiner trees come from TopKSteinerTrees directly
///     on terminal sets the replay has not met before (where the engine's
///     cache misses).
/// Spans are laid out in the time base of the request's enclosing span.
class EngineReplay {
 public:
  EngineReplay(const Database& db, const std::string& snap, bool decompose)
      : db_(db), decompose_(decompose) {
    auto state = LoadSnapshot(snap);
    Require(state.status(), "replay load");
    state_ = *state;
    answer_ = Make();
    if (decompose_) {
      build_ = Make();
      conf_ = Make();
    }
  }

  /// Replays one request. Returns whether the in-process answer equals
  /// the served one (bytes when the payload was kept, else its hash).
  /// `log` (nullable) receives the spans, under `parent` at `anchor_ms`.
  bool Run(const Record& rec, uint32_t parent, double anchor_ms, SpanLog* log,
           ReplayCounters* counters) {
    const std::string& text = rec.query->text;
    const double a0 = NowMs();
    auto result = answer_->Answer(text, kAnswersPerQuery);
    const double a1 = NowMs();
    bool same = false;
    if (result.ok()) {
      const std::string payload = ReplyPayload(*result);
      same = rec.payload.empty() ? Fnv1a(payload) == rec.payload_hash
                                 : payload == rec.payload;
      const CacheCounters& row = result->stats.keyword_row_cache;
      const CacheCounters& st = result->stats.steiner_cache;
      counters->row_hits += row.hits - last_row_.hits;
      counters->row_misses += row.misses - last_row_.misses;
      counters->steiner_hits += st.hits - last_steiner_.hits;
      counters->steiner_misses += st.misses - last_steiner_.misses;
      last_row_ = row;
      last_steiner_ = st;
    }
    ++counters->queries;
    if (decompose_) Decompose(rec, parent, anchor_ms, a1 - a0, log);
    return same;
  }

  /// Whether the served answer equals that of an engine with empty caches.
  bool MatchesFreshEngine(const Record& rec) const {
    auto result = Make()->Answer(rec.query->text, kAnswersPerQuery);
    return result.ok() && Fnv1a(ReplyPayload(*result)) == rec.payload_hash;
  }

 private:
  std::unique_ptr<KeymanticEngine> Make() const {
    auto e = KeymanticEngine::FromPreparedState(db_, state_);
    Require(e.status(), "replay engine");
    return std::move(*e);
  }

  void Decompose(const Record& rec, uint32_t parent, double anchor_ms,
                 double answer_ms, SpanLog* log) {
    const uint32_t answer_id = log->Add(rec.rid, parent, "core.answer",
                                        anchor_ms, anchor_ms + answer_ms);
    const double d0 = NowMs();
    auto at = [&](double t) { return anchor_ms + (t - d0); };
    double t = NowMs();
    std::vector<std::string> keywords =
        Tokenize(rec.query->text, answer_->tokenizer_options());
    double u = NowMs();
    log->Add(rec.rid, answer_id, "text.tokenize", at(t), at(u));
    if (keywords.empty()) return;

    t = NowMs();
    (void)build_->weight_builder().Build(keywords);
    u = NowMs();
    const double build_ms = u - t;

    t = NowMs();
    auto configs = conf_->Configurations(keywords, conf_->options().config_k);
    u = NowMs();
    const uint32_t conf_id = log->Add(rec.rid, answer_id,
                                      "core.configurations", at(t), at(u));
    // Build is the forward step's first call; lay it at the start of the
    // Configurations span so that span's self time is the matching work.
    log->Add(rec.rid, conf_id, "metadata.weights", at(t), at(t) + build_ms);
    if (!configs.ok()) return;

    SteinerOptions opts = conf_->options().steiner;
    opts.k = conf_->options().interp_per_config;
    std::vector<std::pair<size_t, const std::vector<Interpretation>*>> cands;
    for (size_t ci = 0; ci < configs->size(); ++ci) {
      std::vector<size_t> terminals = TerminalsOfConfiguration((*configs)[ci]);
      std::vector<size_t> key = terminals;
      std::sort(key.begin(), key.end());
      auto it = steiner_seen_.find(key);
      if (it == steiner_seen_.end()) {
        t = NowMs();
        auto trees = TopKSteinerTrees(conf_->graph(), terminals, opts);
        u = NowMs();
        std::vector<Interpretation> ranked;
        if (trees.ok()) ranked = std::move(*trees);
        RankInterpretations(&ranked);
        log->Add(rec.rid, answer_id, "graph.steiner", at(t), at(u));
        it = steiner_seen_.emplace(std::move(key), std::move(ranked)).first;
      }
      cands.emplace_back(ci, &it->second);
    }
    t = NowMs();
    for (const auto& [ci, trees] : cands) {
      for (const Interpretation& interp : *trees) {
        (void)conf_->Translate(keywords, (*configs)[ci], interp);
      }
    }
    u = NowMs();
    log->Add(rec.rid, answer_id, "core.translate", at(t), at(u));
  }

  const Database& db_;
  bool decompose_;
  std::shared_ptr<const PreparedState> state_;
  std::unique_ptr<KeymanticEngine> answer_, build_, conf_;
  std::map<std::vector<size_t>, std::vector<Interpretation>> steiner_seen_;
  CacheCounters last_row_, last_steiner_;
};

/// Where a replayed request's spans hang: (parent span id, start ms).
using Anchors = std::unordered_map<uint64_t, std::pair<uint32_t, double>>;

/// Replays every served request of `phase` in the order the server
/// received it (per tenant) and marks each RESP that differs from the
/// in-process answer as a mismatch. Returns the number of mismatches.
size_t ReplayPhase(const Fixture& fx, const Inputs& in, PhaseResult& phase,
                   bool decompose, SpanLog* log, const Anchors* anchors,
                   ReplayCounters* counters) {
  // Replays one run of requests on a fresh engine; returns the mismatches.
  auto replay_segment = [&](const Database& db, const std::string& snap,
                            const std::vector<Record*>& recs,
                            const std::vector<Query>& warm,
                            ReplayCounters* c) {
    EngineReplay engine(db, snap, decompose);
    ReplayCounters scratch;
    for (const Query& q : warm) {
      Record rec;
      rec.query = &q;
      SpanLog discard;
      (void)engine.Run(rec, 0, 0, &discard, &scratch);
    }
    size_t mismatches = 0;
    for (Record* r : recs) {
      uint32_t parent = 0;
      double anchor = 0;
      if (anchors != nullptr) {
        auto it = anchors->find(r->rid);
        if (it != anchors->end()) std::tie(parent, anchor) = it->second;
      }
      const bool same = engine.Run(*r, parent, anchor, log, c);
      if (same || r->outcome != kOk) continue;
      if (engine.MatchesFreshEngine(*r)) {
        ++c->order_dependent;
      } else {
        r->outcome = kMismatch;
        ++mismatches;
      }
    }
    return mismatches;
  };
  // One tenant: its requests in the order they were sent, cut where a
  // reload swapped in a fresh engine. Segments are independent, so
  // without a span log they are replayed in parallel.
  auto replay = [&](const Database& db, const std::string& snap,
                    std::vector<Record*> recs, const std::vector<Query>& warm,
                    const std::vector<size_t>& reset_at) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Record* a, const Record* b) {
                       return a->sent_ms < b->sent_ms;
                     });
    std::vector<std::vector<Record*>> segments(1);
    size_t next_reset = 0;
    for (Record* r : recs) {
      const uint64_t position = r->rid - kClosedRidBase;
      while (next_reset < reset_at.size() && reset_at[next_reset] <= position) {
        segments.emplace_back();
        ++next_reset;
      }
      segments.back().push_back(r);
    }
    std::vector<ReplayCounters> seg_counters(segments.size());
    std::vector<size_t> seg_mismatches(segments.size(), 0);
    auto run = [&](size_t i) {
      seg_mismatches[i] = replay_segment(
          db, snap, segments[i], i == 0 ? warm : std::vector<Query>{},
          &seg_counters[i]);
    };
    if (log == nullptr) {
      std::vector<std::thread> threads;
      for (size_t i = 0; i < segments.size(); ++i) threads.emplace_back(run, i);
      for (std::thread& t : threads) t.join();
    } else {
      for (size_t i = 0; i < segments.size(); ++i) run(i);
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < segments.size(); ++i) {
      const ReplayCounters& c = seg_counters[i];
      counters->row_hits += c.row_hits;
      counters->row_misses += c.row_misses;
      counters->steiner_hits += c.steiner_hits;
      counters->steiner_misses += c.steiner_misses;
      counters->queries += c.queries;
      counters->order_dependent += c.order_dependent;
      mismatches += seg_mismatches[i];
    }
    return mismatches;
  };
  std::vector<Query> mondial_warm = {{"mondial", kProbeQuery, "", -1}};
  mondial_warm.insert(mondial_warm.end(), in.warm.begin(), in.warm.end());
  std::vector<Record*> mondial, big;
  for (std::vector<Record>* recs : {&phase.open, &phase.closed}) {
    for (Record& r : *recs) {
      if (r.done_ms < 0) continue;
      (r.query->tenant == "big" ? big : mondial).push_back(&r);
    }
  }
  size_t mismatches = replay(*fx.mondial, fx.mondial_snap, mondial,
                             mondial_warm, {});
  if (!big.empty()) {
    mismatches += replay(*fx.big, fx.big_snap, big, {}, phase.reload_at);
  }
  return mismatches;
}

// -------------------------------------------------------------- output

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string RecordsJson(const std::vector<Record>& recs) {
  std::string out = "[";
  for (size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    if (i > 0) out += ',';
    out += '[' + std::to_string(r.rid) + ',' + std::to_string(r.conn) + ',' +
           Num(r.due_ms) + ',' + Num(r.sent_ms) + ',' + Num(r.done_ms) + ',' +
           std::to_string(r.outcome) + ',' + Num(r.rr) + ',' +
           std::to_string(r.query->id) + ']';
  }
  return out + ']';
}

std::string PhaseJson(const PhaseResult& p) {
  return "{\"open\":" + RecordsJson(p.open) +
         ",\"closed\":" + RecordsJson(p.closed) +
         ",\"closed_t0_ms\":" + Num(p.closed_t0_ms) +
         ",\"closed_end_ms\":" + Num(p.closed_end_ms) + "}";
}

std::string ListJson(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(v[i]);
  }
  return out + ']';
}

/// Admission counters summed over the registry's tenants.
std::string ServeStatsJson(TenantRegistry& registry) {
  uint64_t submitted = 0, shed = 0;
  size_t max_depth = 0;
  for (const std::string& id : registry.TenantIds()) {
    auto stats = registry.StatsFor(id);
    if (!stats.ok()) continue;
    submitted += stats->submitted;
    shed += stats->shed;
    max_depth = std::max(max_depth, stats->max_queue_depth);
  }
  return "\"submitted\":" + std::to_string(submitted) +
         ",\"shed\":" + std::to_string(shed) +
         ",\"max_queue_depth\":" + std::to_string(max_depth);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string workdir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(value.c_str());
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--out") a.out = value;
    else if (flag == "--workdir") a.workdir = value;
    else Die("unknown flag " + flag);
  }
  if (a.out.empty() || a.workdir.empty() || a.seconds <= 0) {
    Die("usage: km_reqbench --workload W --seed N --seconds S --trace 0|1 "
        "--out FILE --workdir DIR");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload " + args.workload);


  // ---- inputs and snapshot files (not timed)
  Fixture fx;
  {
    auto m = BuildMondialDatabase();
    Require(m.status(), "build mondial");
    fx.mondial = std::make_unique<Database>(std::move(*m));
    fx.mondial_snap = args.workdir + "/mondial.snap";
    auto state = PreparedState::Build(*fx.mondial, PrepareOptions{});
    Require(SaveSnapshot(*state, fx.mondial_snap), "save mondial");
    if (spec->big) {
      auto b = BuildScalingDatabase(BigSchemaOptions());
      Require(b.status(), "build big");
      fx.big = std::make_unique<Database>(std::move(*b));
      fx.big_snap = args.workdir + "/big.snap";
      auto big_state = PreparedState::Build(*fx.big, PrepareOptions{});
      Require(SaveSnapshot(*big_state, fx.big_snap), "save big");
      fx.big_tokenizer = big_state->tokenizer_options();
    }
  }
  Inputs in;
  in.spec = spec;
  in.seconds = args.seconds;
  const size_t open_n = static_cast<size_t>(
      std::llround(args.seconds * spec->open_share * spec->open_qps));
  if (spec->distinct) {
    // Every request distinct: the open stream, then the closed stream.
    std::vector<Query> all = MondialQueries(*fx.mondial, args.seed, 500);
    if (all.size() <= kColdWarm + open_n) Die("not enough distinct queries");
    auto at = [&](size_t i) { return all.begin() + static_cast<ptrdiff_t>(i); };
    in.warm.assign(at(0), at(kColdWarm));
    in.open.assign(at(kColdWarm), at(kColdWarm + open_n));
    in.closed.assign(at(kColdWarm + open_n), all.end());
  } else {
    std::vector<Query> pool = MondialQueries(*fx.mondial, args.seed, 6);
    if (pool.size() < kHotPool) Die("hot pool too small");
    pool.resize(kHotPool);
    std::vector<double> cdf(pool.size());
    double total = 0;
    for (size_t r = 0; r < pool.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf[r] = total;
    }
    Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
    auto draw = [&] {
      const double x = UnitDouble(rng) * total;
      return pool[std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin()];
    };
    for (size_t i = 0; i < open_n; ++i) in.open.push_back(draw());
    in.warm = pool;
    if (spec->big) {
      // A fixed set of kBigKeywords keywords in a fresh seeded order per
      // pass: every run asks for the same keywords (seeds differ in order,
      // not in the mix), and the set fits the row cache, so after a reload
      // the tenant pays the misses once and then serves hits.
      std::vector<std::string> all_words =
          BigVocabulary(*fx.big, fx.big_tokenizer);
      std::vector<std::string> vocab;
      for (size_t i = 0; i < kBigKeywords; ++i) {
        vocab.push_back(all_words[i * all_words.size() / kBigKeywords]);
      }
      while (in.closed.size() < 50000) {
        for (size_t i = vocab.size(); i > 1; --i) {
          std::swap(vocab[i - 1], vocab[rng.Uniform(i)]);
        }
        for (const std::string& w : vocab) in.closed.push_back({"big", w, "", -1});
      }
    } else {
      for (size_t i = 0; i < 50000; ++i) in.closed.push_back(draw());
    }
  }

  // ---- timed run: set-up (timed), warm-up, the workload's phases
  std::vector<double> setup_s;
  const double rss0 = RssMb();
  PhaseResult timed;
  std::vector<double> reload_ms;
  double rss_mb = 0;
  {
    Stack stack;
    setup_s.push_back(SetUp(fx, /*wire=*/true, &stack));
    timed = RunPhases(in, fx, stack, /*keep_payloads=*/false);
    // Freed memory the allocator still holds is returned first, so that
    // the growth counts what the serving stack keeps, not allocator slack.
    malloc_trim(0);
    rss_mb = RssMb() - rss0;
    reload_ms = timed.reload_ms;
    if (!spec->big) {
      // No reloads under traffic here: time the mondial reload after it.
      for (size_t i = 0; i < kIdleReloads; ++i) {
        ReloadReport report;
        const double t = NowMs();
        Require(stack.registry.ReloadTenantSnapshot("mondial", fx.mondial_snap,
                                                    true, &report),
                "reload mondial");
        reload_ms.push_back(NowMs() - t);
      }
    }
  }

  std::string trace_json;
  if (args.trace) {
    // W: the same stream, traced, on a fresh stack (same warm-up).
    PhaseResult traced;
    std::string wire_counters;
    {
      Stack stack;
      (void)SetUp(fx, true, &stack);
      traced = RunPhases(in, fx, stack, /*keep_payloads=*/true);
      const net::NetServerStats net = stack.server->Stats();
      wire_counters = "\"bytes_out\":" + std::to_string(net.bytes_out) +
                      ",\"replies\":" + std::to_string(net.replies) + "," +
                      ServeStatsJson(stack.registry);
    }
    // P: the same schedule through TenantRegistry::Submit in process.
    PhaseResult submitted;
    {
      Stack stack;
      (void)SetUp(fx, false, &stack);
      submitted = RunPhases(in, fx, stack, false);
    }

    // Spans: wire send→reply ⊃ Submit→ready ⊃ Answer ⊃ stage calls. The
    // replays are anchored at the start of the span that contains them.
    SpanLog log;
    std::unordered_map<uint64_t, const Record*> by_rid;
    for (const Record& r : submitted.open) by_rid[r.rid] = &r;
    Anchors anchor;
    for (const std::vector<Record>* recs : {&traced.open, &traced.closed}) {
      for (const Record& r : *recs) {
        if (r.done_ms < 0) continue;
        const uint32_t wid =
            log.Add(r.rid, 0, "net.request", r.due_ms, r.done_ms);
        anchor[r.rid] = {wid, r.due_ms};
        auto it = by_rid.find(r.rid);
        if (it == by_rid.end() || it->second->done_ms < 0) continue;
        const double d = it->second->done_ms - it->second->due_ms;
        anchor[r.rid] = {
            log.Add(r.rid, wid, "serve.submit", r.due_ms, r.due_ms + d),
            r.due_ms};
      }
    }

    // E: serial engine replay of the wire's requests, in arrival order.
    ReplayCounters counters;
    const size_t mismatches =
        ReplayPhase(fx, in, traced, /*decompose=*/true, &log, &anchor, &counters);
    std::vector<const Record*> served;
    for (const Record& r : traced.open) served.push_back(&r);
    for (const Record& r : traced.closed) served.push_back(&r);
    const auto [cache_dependent, distinct] = ColdEngineDisagreements(fx, served);

    // Codec cost on the run's actual reply payloads.
    std::vector<double> codec_us;
    for (const Record* r : served) {
      if (r->payload.empty()) continue;
      auto reply = net::DecodeAnswerReply(r->payload);
      if (!reply.ok()) continue;
      const double t = NowMs();
      const std::string wire = net::EncodeFrame(
          net::MakeFrame("RESP", r->rid, net::EncodeAnswerReply(*reply)));
      net::FrameDecoder decoder;
      net::Frame frame;
      (void)decoder.Feed(wire.data(), wire.size());
      (void)decoder.Next(&frame);
      codec_us.push_back((NowMs() - t) * 1000.0);
    }

    // Snapshot load per tenant (median of three) and file size.
    double load_ms = 0, snap_bytes = 0;
    for (const std::string* path : {&fx.mondial_snap, &fx.big_snap}) {
      if (path->empty()) continue;
      std::vector<double> samples;
      for (int i = 0; i < 3; ++i) {
        const double t = NowMs();
        Require(LoadSnapshot(*path).status(), "load snapshot");
        samples.push_back(NowMs() - t);
      }
      load_ms += Median(samples);
      std::ifstream f(*path, std::ios::binary | std::ios::ate);
      snap_bytes += static_cast<double>(f.tellg());
    }

    std::string spans = "[";
    for (size_t i = 0; i < log.spans().size(); ++i) {
      const Span& sp = log.spans()[i];
      if (i > 0) spans += ',';
      spans += '[' + std::to_string(sp.rid) + ',' + std::to_string(sp.id) +
               ',' + std::to_string(sp.parent) + ",\"" + sp.name + "\"," +
               Num(sp.start_ms) + ',' + Num(sp.end_ms) + ']';
    }
    spans += ']';
    trace_json =
        ",\"traced\":" + PhaseJson(traced) + ",\"inproc\":" +
        PhaseJson(submitted) + ",\"spans\":" + spans +
        ",\"codec_us\":" + ListJson(codec_us) +
        ",\"counters\":{\"row_hits\":" + std::to_string(counters.row_hits) +
        ",\"row_misses\":" + std::to_string(counters.row_misses) +
        ",\"steiner_hits\":" + std::to_string(counters.steiner_hits) +
        ",\"steiner_misses\":" + std::to_string(counters.steiner_misses) +
        ",\"replayed\":" + std::to_string(counters.queries) +
        ",\"mismatches\":" + std::to_string(mismatches) +
        ",\"order_dependent\":" + std::to_string(counters.order_dependent) +
        ",\"cache_dependent\":" + std::to_string(cache_dependent) +
        ",\"distinct\":" + std::to_string(distinct) + "," +
        wire_counters + ",\"snapshot_load_ms\":" + Num(load_ms) +
        ",\"snapshot_bytes\":" + Num(snap_bytes) + "}";
  }

  // The oracle for the timed run: the same requests replayed in process.
  ReplayCounters timed_replay;
  (void)ReplayPhase(fx, in, timed, /*decompose=*/false, nullptr, nullptr,
                    &timed_replay);

  // Further set-ups (torn down again) for a median set-up time.
  for (size_t i = 1; i < spec->setup_reps; ++i) {
    Stack trial;
    setup_s.push_back(SetUp(fx, true, &trial));
  }

  std::string out =
      "{\"workload\":\"" + std::string(spec->name) +
      "\",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + Num(args.seconds) +
      ",\"open_qps\":" + Num(spec->open_qps) +
      ",\"open_conns\":" + std::to_string(spec->open_conns) +
      ",\"setup_s\":" + ListJson(setup_s) +
      ",\"reload_ms\":" + ListJson(reload_ms) + ",\"rss_mb\":" + Num(rss_mb) +
      ",\"order_dependent\":" + std::to_string(timed_replay.order_dependent) +
      ",\"timed\":" + PhaseJson(timed) + trace_json + "}\n";
  std::ofstream f(args.out);
  f << out;
  f.close();
  std::remove(fx.mondial_snap.c_str());
  if (!fx.big_snap.empty()) std::remove(fx.big_snap.c_str());
  return f ? 0 : 2;
}
