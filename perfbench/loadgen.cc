// The load generator: one pass launches a SketchServer in its own
// process (this binary re-executed in server mode, so the server's CPU
// time and peak RSS in /proc are its own), connects to it over one
// socketpair, and drives the script's phases in a closed loop from one
// thread. Every timed request is timed at the client; its response is
// kept and checked against the exact model after the timed phase.

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "bench.h"
#include "service/frame.h"
#include "service/transport.h"
#include "util/logging.h"
#include "wire/varint.h"

namespace perfbench {

using dsketch::FdTransport;
using dsketch::FrameStatus;
using dsketch::Opcode;

namespace {

// Request ids of the benchmark's own control requests (METRICS,
// SHUTDOWN), far above any script id.
constexpr uint64_t kControlIds = uint64_t{1} << 40;

int NumCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

// CPU 0 alone, or CPUs 1..n-1.
cpu_set_t CpuSet(bool client) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = client ? 0 : 1; c < (client ? 1 : NumCpus()); ++c) {
    CPU_SET(c, &set);
  }
  return set;
}

}  // namespace

void PlaceThreads(pid_t pid) {
  if (NumCpus() < 2) return;
  const cpu_set_t client = CpuSet(true), server = CpuSet(false);
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    sched_setaffinity(tid, sizeof(cpu_set_t), tid == pid ? &client : &server);
  }
  closedir(d);
}

namespace {

// A server process on one end of a socketpair, on the server's CPUs. The
// destructor kills and reaps a server that was not shut down cleanly.
class ServerProcess {
 public:
  ServerProcess(const std::string& exe, Workload w, uint64_t seed) {
    int sv[2];
    DSKETCH_CHECK(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) == 0);
    const std::string fd_arg = std::to_string(sv[1]);
    const std::string seed_arg = std::to_string(seed);
    std::vector<const char*> argv = {exe.c_str(),       "--serve-fd",
                                     fd_arg.c_str(),    "--workload",
                                     WorkloadName(w),   "--seed",
                                     seed_arg.c_str(),  nullptr};
    std::fflush(nullptr);
    pid_ = fork();
    DSKETCH_CHECK(pid_ >= 0);
    if (pid_ == 0) {
      // The server starts on the shard workers' CPUs; PlaceThreads
      // moves its serve thread once its fleets exist.
      if (NumCpus() >= 2) {
        const cpu_set_t server = CpuSet(false);
        sched_setaffinity(0, sizeof server, &server);
      }
      fcntl(sv[1], F_SETFD, 0);  // the server's end survives exec
      execv(exe.c_str(), const_cast<char* const*>(argv.data()));
      _exit(127);
    }
    close(sv[1]);
    transport_ = std::make_unique<FdTransport>(sv[0], sv[0], /*owns_fds=*/true);
  }

  ~ServerProcess() {
    transport_.reset();
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  dsketch::Transport& transport() { return *transport_; }
  pid_t pid() const { return pid_; }

  // Waits for the server to exit after SHUTDOWN; true on exit code 0.
  bool Reap() {
    int status = 0;
    const bool ok = waitpid(pid_, &status, 0) == pid_ && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    pid_ = -1;
    return ok;
  }

 private:
  pid_t pid_ = -1;
  std::unique_ptr<FdTransport> transport_;
};

bool RoundTrip(dsketch::Transport& t, std::string_view payload,
               std::string* response) {
  return dsketch::WriteFrame(t, payload) &&
         dsketch::ReadFrame(t, response) == FrameStatus::kOk;
}

// Server CPU seconds: the run time of every thread from schedstat (ns).
double ProcessCpuSeconds(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  double ns = 0.0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) ns += run_ns;
  }
  closedir(d);
  return ns * 1e-9;
}

// Peak resident set (VmHWM) in MB.
double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Opcode OpcodeOf(Op op) {
  switch (op) {
    case Op::kIngest:
      return Opcode::kIngestBatch;
    case Op::kStats:
      return Opcode::kStats;
    case Op::kSum:
    case Op::kWindowSum:
      return Opcode::kQuerySum;
    case Op::kTopK:
      return Opcode::kQueryTopK;
    case Op::kGroupBy:
      return Opcode::kQueryGroupBy;
    case Op::kSnapshot:
      return Opcode::kSnapshot;
  }
  return Opcode::kStats;
}

uint64_t HashDouble(uint64_t h, double v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  return Fnv1a(h, std::string_view(bytes, sizeof v));
}

bool ExactlyEquals(double estimate, int64_t exact) {
  return std::fabs(estimate - static_cast<double>(exact)) < 0.5;
}

// Checks one response against the request's exact expectations; returns
// an empty string when right, else why not. Folds every returned answer
// into out->answer_digest and filtered-sum errors into out->rel_errors.
std::string Check(const Script& s, const Request& r, const std::string& rsp,
                  PassResult* out) {
  dsketch::wire::VarintReader reader(rsp);
  dsketch::ResponseHeader h;
  if (!dsketch::DecodeResponseHeader(reader, &h)) return "undecodable header";
  if (h.opcode != OpcodeOf(r.op) || h.request_id != r.id) {
    return "response does not echo the request";
  }
  if (h.status != dsketch::Status::kOk) {
    return "status " + std::to_string(static_cast<int>(h.status));
  }
  uint64_t& d = out->answer_digest;
  switch (r.op) {
    case Op::kIngest: {
      dsketch::IngestBatchResponse m;
      if (!dsketch::DecodeIngestBatchResponse(reader, &m)) return "bad body";
      return m.rows_accepted == r.rows ? "" : "rows not accepted";
    }
    case Op::kStats: {
      dsketch::StatsResponse m;
      if (!dsketch::DecodeStatsResponse(reader, &m)) return "bad body";
      return m.total_count == r.exact ? "" : "STATS total_count != rows sent";
    }
    case Op::kSum:
    case Op::kWindowSum: {
      dsketch::QuerySumResponse m;
      if (!dsketch::DecodeQuerySumResponse(reader, &m)) return "bad body";
      d = HashDouble(HashDouble(d, m.estimate), m.variance);
      if (r.filtered) {
        if (r.exact > 0) {
          out->rel_errors.push_back((m.estimate - r.exact) / r.exact);
        }
        return "";
      }
      return ExactlyEquals(m.estimate, r.exact) ? "" : "SUM != exact rows";
    }
    case Op::kTopK: {
      dsketch::QueryTopKResponse m;
      if (!dsketch::DecodeQueryTopKResponse(reader, &m)) return "bad body";
      for (const dsketch::SketchEntry& e : m.counts) {
        d = HashDouble(d, static_cast<double>(e.item) * 1e6 + e.count);
      }
      for (uint64_t item : s.tops[r.top]) {
        bool found = false;
        for (const dsketch::SketchEntry& e : m.counts) found |= e.item == item;
        if (!found) return "TOPK misses a true top item";
      }
      return "";
    }
    case Op::kGroupBy: {
      dsketch::QueryGroupByResponse m;
      if (!dsketch::DecodeQueryGroupByResponse(reader, &m)) return "bad body";
      double total = 0.0;
      for (const dsketch::GroupRow& g : m.groups) {
        d = HashDouble(d, g.estimate);
        total += g.estimate;
      }
      return ExactlyEquals(total, r.exact) ? "" : "GROUPBY total != rows";
    }
    case Op::kSnapshot: {
      dsketch::SnapshotResponse m;
      if (!dsketch::DecodeSnapshotResponse(reader, &m)) return "bad body";
      d = Fnv1a(d, m.blob);
      return m.blob.empty() ? "empty snapshot" : "";
    }
  }
  return "unknown op";
}

void Record(PassResult* out, const std::string& why) {
  ++out->attempted;
  if (why.empty()) return;
  ++out->failed;
  if (out->first_failure.empty()) out->first_failure = why;
}

std::map<std::string, double> FetchMetrics(dsketch::Transport& t,
                                           uint64_t id, PassResult* out) {
  std::string rsp;
  if (!RoundTrip(t, dsketch::EncodeMetricsRequest(id, {}), &rsp)) {
    Record(out, "METRICS failed");
    return {};
  }
  dsketch::wire::VarintReader reader(rsp);
  dsketch::ResponseHeader h;
  dsketch::MetricsResponse m;
  const bool ok = dsketch::DecodeResponseHeader(reader, &h) &&
                  h.status == dsketch::Status::kOk &&
                  dsketch::DecodeMetricsResponse(reader, &m);
  Record(out, ok ? "" : "METRICS failed");
  return ok ? ParseExposition(m.text) : std::map<std::string, double>{};
}

}  // namespace

ClientCpuScope::ClientCpuScope() {
  sched_getaffinity(0, sizeof saved_, &saved_);
  if (NumCpus() >= 2) {
    const cpu_set_t client = CpuSet(true);
    sched_setaffinity(0, sizeof client, &client);
  }
}

ClientCpuScope::~ClientCpuScope() {
  sched_setaffinity(0, sizeof saved_, &saved_);
}

std::map<std::string, double> ParseExposition(std::string_view text) {
  std::map<std::string, double> out;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

int ServeMain(int fd, Workload w, uint64_t seed) {
  const dsketch::AttributeTable attrs = BuildAttributes(seed);
  dsketch::SketchServer server(ServerOptions(w), &attrs);
  FdTransport transport(fd, fd, /*owns_fds=*/true);
  server.Serve(transport);
  return server.shutdown_requested() ? 0 : 1;
}

PassResult RunPass(const std::string& exe, const Script& script,
                   uint64_t seed, bool with_metrics) {
  PassResult out;
  out.answer_digest = kFnvOffset;
  const ClientCpuScope client_cpu;
  const Clock::time_point launch = Clock::now();
  ServerProcess server(exe, script.workload, seed);
  dsketch::Transport& t = server.transport();
  std::string rsp;
  auto send_checked = [&](const Request& r) {
    if (!RoundTrip(t, script.payloads[r.payload], &rsp)) {
      Record(&out, "transport failure");
      return false;
    }
    Record(&out, Check(script, r, rsp, &out));
    return true;
  };

  // Set-up: a STATS answered once the server is up, then the preload,
  // ending in a barrier the server answers only once every preloaded
  // row is applied.
  Clock::time_point preload_start = launch;
  for (const Request& r : script.setup) {
    if (!send_checked(r)) return out;
    if (&r == &script.setup.front()) preload_start = Clock::now();
  }
  const Clock::time_point ready = Clock::now();
  out.setup_s = SecondsBetween(launch, ready);
  if (script.setup_rows > 0) {
    out.preload_mrows_per_s =
        script.setup_rows / SecondsBetween(preload_start, ready) / 1e6;
  }

  // Every fleet exists now (see PlaceThreads).
  PlaceThreads(server.pid());
  uint64_t control_id = kControlIds;
  if (with_metrics) out.metrics_before = FetchMetrics(t, control_id++, &out);

  // Timed phase: the closed loop. Responses are checked after it ends.
  std::vector<std::string> responses(script.timed.size());
  std::vector<double> latency_us(script.timed.size());
  const double cpu0 = ProcessCpuSeconds(server.pid());
  const Clock::time_point start = Clock::now();
  size_t sent = 0;
  for (; sent < script.timed.size(); ++sent) {
    const Clock::time_point t0 = Clock::now();
    if (!RoundTrip(t, script.payloads[script.timed[sent].payload],
                   &responses[sent])) {
      break;
    }
    latency_us[sent] = MicrosBetween(t0, Clock::now());
  }
  const Clock::time_point end = Clock::now();
  out.server_cpu_s = ProcessCpuSeconds(server.pid()) - cpu0;
  out.server_rss_mb = PeakRssMb(server.pid());
  out.timed_s = SecondsBetween(start, end);
  if (sent < script.timed.size()) {
    Record(&out, "transport failure");
    return out;
  }
  size_t queries = 0;
  for (size_t i = 0; i < script.timed.size(); ++i) {
    const Request& r = script.timed[i];
    Record(&out, Check(script, r, responses[i], &out));
    if (r.op != Op::kIngest) {
      out.query_us.push_back(latency_us[i]);
      ++queries;
    }
  }
  responses.clear();
  out.queries_per_s = queries / out.timed_s;
  out.ingest_mrows_per_s = script.timed_rows / out.timed_s / 1e6;

  if (with_metrics) out.metrics_after = FetchMetrics(t, control_id++, &out);

  for (const Request& r : script.verify) {
    if (!send_checked(r)) return out;
  }

  if (!RoundTrip(t, dsketch::EncodeShutdownRequest(control_id++), &rsp)) {
    Record(&out, "SHUTDOWN failed");
    return out;
  }
  Record(&out, server.Reap() ? "" : "server exited with an error");
  return out;
}

}  // namespace perfbench
