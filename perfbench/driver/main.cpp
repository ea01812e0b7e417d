// perfbench_driver: runs one workload of the dfmkit benchmark in this
// process and prints one raw JSON record (latency samples, set-up
// time, counts, per-layer samples) as its last line. perfbench/run.py
// builds this binary, runs it (several times per untraced run), and
// reduces the records to the metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir> --dfmkit <binary>
//                    [--spans-out <file>] [--inject-failures <n>]
//   perfbench_driver --write-inputs <workload> --seed <n> --work-dir <dir>
//
// Exit codes: 0 measured (the record says whether every check passed),
// 2 usage or set-up error, 3 the workload's threads, clients or shard
// workers exceed nproc.
#include "common.h"
#include "inputs.h"

#include "core/version.h"
#include "service/protocol.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace {

using dfm::service::Json;
using namespace perfbench;

// Captured during static initialization, before main: set-up counts
// from here, so process start-up is part of setup_s.
const std::uint64_t g_process_start_ns = now_ns();

struct Args {
  std::string workload;
  std::string write_inputs;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string dfmkit;
  std::string spans_out;
  std::uint64_t inject_failures = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--write-inputs") {
      a.write_inputs = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--dfmkit") {
      a.dfmkit = v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else if (flag == "--inject-failures") {
      a.inject_failures = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.work_dir.empty()) throw std::runtime_error("--work-dir is required");
  if (a.write_inputs.empty() && a.workload.empty()) {
    throw std::runtime_error("--workload is required");
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "signoff_cold") return make_signoff_cold();
  if (name == "eco_served") return make_eco_served();
  if (name == "fix_loop") return make_fix_loop();
  if (name == "sharded_cold") return make_sharded_cold();
  throw std::runtime_error("unknown workload '" + name + "'");
}

/// The refusal message when a configured count exceeds nproc; empty
/// when the workload fits.
std::string over_budget(const Budget& b, unsigned nproc) {
  const auto check = [&](unsigned n, const char* what) -> std::string {
    if (n <= nproc) return {};
    return std::to_string(n) + " " + what + " configured but nproc is " +
           std::to_string(nproc);
  };
  for (const std::string& msg :
       {check(b.compute_threads, "compute threads"),
        check(b.clients, "client threads"),
        check(b.shard_workers, "shard worker processes")}) {
    if (!msg.empty()) return msg;
  }
  return {};
}

Json numbers(const std::vector<double>& v) {
  Json::Array a;
  a.reserve(v.size());
  for (const double x : v) a.emplace_back(x);
  return Json(std::move(a));
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  Json::Array a;
  a.reserve(spans.size());
  for (const Span& s : spans) {
    Json::Object o;
    o["name"] = Json(s.name);
    o["start_ns"] = Json(s.start_ns);
    o["end_ns"] = Json(s.end_ns);
    o["id"] = Json(s.id);
    o["parent"] = Json(s.parent);
    o["request"] = Json(s.request);
    o["derived"] = Json(s.derived);
    a.emplace_back(std::move(o));
  }
  std::ofstream out(path);
  out << Json(std::move(a)).dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_workload(const Args& args) {
  Run run;
  run.seed = args.seed;
  run.trace = args.trace;
  run.work_dir = args.work_dir;
  run.dfmkit = args.dfmkit;
  run.inject_failures = args.inject_failures;
  const unsigned nproc = online_cpus();
  const double load_start = load_average();
  const CpuTicks ticks_start = cpu_ticks();

  std::unique_ptr<Workload> wl = make_workload(args.workload);
  const Budget budget = wl->budget();
  if (const std::string msg = over_budget(budget, nproc); !msg.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run %s: %s\n",
                 args.workload.c_str(), msg.c_str());
    return 3;
  }
  make_dirs(run.work_dir);

  wl->setup(run);
  run.rec.setup_s.push_back(
      static_cast<double>(now_ns() - g_process_start_ns) / 1e9);
  if (args.trace) {
    // Untraced half first, then the traced half: the difference in
    // op_ms_p50 between them is the tracing overhead.
    wl->measure(run, args.seconds / 2, false);
    run.tracing = true;
    wl->measure(run, args.seconds / 2, true);
    run.tracing = false;
  } else {
    wl->measure(run, args.seconds, false);
  }
  wl.reset();  // teardown: server joined, shard workers reaped

  if (!args.spans_out.empty()) write_spans(args.spans_out, run.spans.spans());

  const Record& rec = run.rec;
  Json::Object env;
  env["nproc"] = Json(static_cast<std::int64_t>(nproc));
  env["load_start"] = Json(load_start);
  env["load_end"] = Json(load_average());
  // Host CPU time over this process's life and the part the hypervisor
  // gave to other guests; run.py pools them into steal_pct.
  const CpuTicks ticks_end = cpu_ticks();
  env["cpu_ticks"] = Json(ticks_end.total - ticks_start.total);
  env["steal_ticks"] = Json(ticks_end.steal - ticks_start.steal);
  env["revision"] = Json(dfm::git_revision());
  env["version"] = Json(dfm::version_string());
  env["compute_threads"] = Json(static_cast<std::int64_t>(budget.compute_threads));
  env["clients"] = Json(static_cast<std::int64_t>(budget.clients));
  env["shard_workers"] = Json(static_cast<std::int64_t>(budget.shard_workers));

  Json::Object samples;
  for (const auto& [name, v] : rec.samples) samples[name] = numbers(v);
  Json::Object values;
  for (const auto& [name, v] : rec.values) values[name] = Json(v);
  Json::Array failures;
  for (const std::string& f : rec.failures) failures.emplace_back(f);

  Json::Object out;
  out["workload"] = Json(args.workload);
  out["seed"] = Json(args.seed);
  out["trace"] = Json(args.trace);
  out["env"] = Json(std::move(env));
  out["setup_s"] = numbers(rec.setup_s);
  out["op_ms"] = numbers(rec.op_ms);
  out["traced_op_ms"] = numbers(rec.traced_op_ms);
  out["window_s"] = Json(rec.window_s);
  out["attempted"] = Json(rec.attempted);
  out["failed"] = Json(rec.failed);
  out["failures"] = Json(std::move(failures));
  out["peak_rss_mb"] = Json(peak_rss_mb());
  out["samples"] = Json(std::move(samples));
  out["values"] = Json(std::move(values));
  std::printf("%s\n", Json(std::move(out)).dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.write_inputs.empty()) {
      make_dirs(args.work_dir);
      for (const std::string& path :
           write_inputs(args.write_inputs, args.seed, args.work_dir)) {
        std::printf("%s\n", path.c_str());
      }
      return 0;
    }
    return run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
