// ccd_report: inspect and compare the sweep pipeline's JSON artifacts.
//
// Subcommands:
//   show FILE         per-cell distribution view (histogram bars, exact
//                     p50/p90/p99/p99.9, tail mass) of a report, shard
//                     report, ccd-dist-v1 export, or perf sidecar
//   diff A B          cell-by-cell keyed diff of two report artifacts;
//                     exits 1 when they differ
//   export FILE       canonicalize a dist/shard artifact into ccd-dist-v1
//   trace-diff A B    align two `ccd_sweep --rerun-cell` dumps round by
//                     round; prints the first divergent round and the
//                     view/advice/decision deltas; exits 1 on divergence
//   bench-diff OLD NEW [--max-regress PCT]
//                     compare two ccd-bench-v1 artifacts; exits 1 when a
//                     gated rate regressed past the threshold -- the CI
//                     bench regression gate
//
// Everything here reads serialized artifacts only: no engine, no grid
// execution, so inspection can never perturb what it inspects.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report_inspect.hpp"
#include "util/parse_uint.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out, R"(usage: ccd_report COMMAND [options] FILE...

commands:
  show FILE             render per-cell distributions of a report artifact
                        (aggregate report, shard report v1/v2, ccd-dist-v1,
                        or perf sidecar)
    --cell N            show only cell N
    --metric NAME       show only this metric
    --tail-over X       also report the count/mass of samples > X
    --width W           histogram bar width in characters (default 40)
    --max-bins B        coalesce histograms wider than B rows (default 24)
  diff A B              keyed cell-by-cell diff; exit 1 when they differ
  export FILE --out F   rewrite a dist/shard artifact as canonical
                        ccd-dist-v1
  trace-diff A B        round-by-round diff of two --rerun-cell trace
                        dumps; exit 1 on divergence
  bench-diff OLD NEW    compare ccd-bench-v1 artifacts; exit 1 when a
                        gated rate drops more than the threshold
    --max-regress PCT   regression threshold in percent (default 20)

exit codes: 0 ok / no difference, 1 difference or regression, 2 bad input.
)");
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "ccd_report: %s\n", message.c_str());
  return 2;
}

bool parse_double_arg(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end && *end == '\0';
}

bool parse_u64_arg(const char* text, std::uint64_t* out) {
  const auto v = ccd::parse_uint<std::uint64_t>(text);
  if (v) *out = *v;
  return v.has_value();
}

bool parse_int_arg(const char* text, int* out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (!end || *end != '\0' || v <= 0 || v > 4096) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    usage(stdout);
    return 0;
  }

  ccd::obs::InspectOptions options;
  double max_regress_pct = 20.0;
  std::string out_path;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ccd_report: %s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--cell") {
      const char* v = need_value("--cell");
      std::uint64_t cell = 0;
      if (!v || !parse_u64_arg(v, &cell)) return fail("bad --cell value");
      options.only_cell = cell;
    } else if (flag == "--metric") {
      const char* v = need_value("--metric");
      if (!v) return 2;
      options.only_metric = v;
    } else if (flag == "--tail-over") {
      const char* v = need_value("--tail-over");
      double threshold = 0;
      if (!v || !parse_double_arg(v, &threshold)) {
        return fail("bad --tail-over value");
      }
      options.tail_over = threshold;
    } else if (flag == "--width") {
      const char* v = need_value("--width");
      if (!v || !parse_int_arg(v, &options.bar_width)) {
        return fail("bad --width value");
      }
    } else if (flag == "--max-bins") {
      const char* v = need_value("--max-bins");
      if (!v || !parse_int_arg(v, &options.max_bins)) {
        return fail("bad --max-bins value");
      }
    } else if (flag == "--max-regress") {
      const char* v = need_value("--max-regress");
      if (!v || !parse_double_arg(v, &max_regress_pct) ||
          max_regress_pct < 0) {
        return fail("bad --max-regress value");
      }
    } else if (flag == "--out") {
      const char* v = need_value("--out");
      if (!v) return 2;
      out_path = v;
    } else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr, "ccd_report: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 2;
    } else {
      files.push_back(flag);
    }
  }

  auto load = [&](const std::string& path, std::string* text) -> bool {
    if (!read_file(path, *text)) {
      std::fprintf(stderr, "ccd_report: cannot read %s\n", path.c_str());
      return false;
    }
    return true;
  };

  std::string error;
  if (command == "show") {
    if (files.size() != 1) return fail("show needs exactly one FILE");
    std::string text, out;
    if (!load(files[0], &text)) return 2;
    if (!ccd::obs::render_report(text, options, &out, &error)) {
      return fail(files[0] + ": " + error);
    }
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  if (command == "diff" || command == "trace-diff") {
    if (files.size() != 2) {
      return fail(command + " needs exactly two files");
    }
    std::string a, b, out;
    if (!load(files[0], &a) || !load(files[1], &b)) return 2;
    bool differs = false;
    const bool ok =
        command == "diff"
            ? ccd::obs::diff_reports(a, b, &out, &differs, &error)
            : ccd::obs::diff_traces(a, b, &out, &differs, &error);
    if (!ok) return fail(error);
    std::fputs(out.c_str(), stdout);
    return differs ? 1 : 0;
  }
  if (command == "export") {
    if (files.size() != 1) return fail("export needs exactly one FILE");
    std::string text, out;
    if (!load(files[0], &text)) return 2;
    if (!ccd::obs::export_dist(text, &out, &error)) {
      return fail(files[0] + ": " + error);
    }
    out += "\n";
    if (out_path.empty()) {
      std::fputs(out.c_str(), stdout);
    } else {
      std::ofstream f(out_path, std::ios::binary);
      if (!f) return fail("cannot write " + out_path);
      f << out;
    }
    return 0;
  }
  if (command == "bench-diff") {
    if (files.size() != 2) {
      return fail("bench-diff needs exactly two files (OLD NEW)");
    }
    std::string old_text, new_text, out;
    if (!load(files[0], &old_text) || !load(files[1], &new_text)) return 2;
    bool regressed = false;
    if (!ccd::obs::diff_bench(old_text, new_text, max_regress_pct, &out,
                              &regressed, &error)) {
      return fail(error);
    }
    std::fputs(out.c_str(), stdout);
    if (regressed) {
      std::fprintf(stderr,
                   "ccd_report: bench regression past --max-regress %.1f%%\n",
                   max_regress_pct);
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr, "ccd_report: unknown command '%s'\n", command.c_str());
  usage(stderr);
  return 2;
}
