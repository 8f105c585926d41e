// invfs_torture: the fault-schedule torture sweep (see src/fault/torture.h).
//
// Usage: invfs_torture [--net-faults] [--seed N] [--txns N] [--files N]
//                      [--buffers N] [--occurrences N] [--write-schedules N]
//                      [--no-points] [--no-write-sweep] [--quick]
//                      [--under-load] [--verbose]
//
//   --net-faults         the wire domain: every wire fault kind (request or
//                        response drop, duplicate delivery, truncated reply,
//                        connection reset) at positions over the recorded
//                        exchanges, judged on the live world. Without it,
//                        the device domain: every crash point plus a sweep
//                        of halts before the Nth device write, each judged
//                        after recovery.
//   --seed N             plan and fault seed (decimal or 0x hex)
//   --txns N             plan steps
//   --files N            file-name pool size
//   --buffers N          buffer-pool frames
//   --occurrences N      occurrence budget per crash point or wire fault
//                        kind, spread from its first to its last occurrence
//   --write-schedules N  device-write sweep budget
//   --no-points          --occurrences 0 (device write sweep only)
//   --no-write-sweep     --write-schedules 0
//   --quick              --txns 10 --occurrences 2 --write-schedules 12
//   --under-load         interleave the builtin multi-tenant load mix under
//                        /load between plan steps
//   --verbose            one line per schedule
//
// --write-schedules, --no-points, --no-write-sweep and --under-load apply to
// the device domain only and are rejected with --net-faults. Exit status:
// 0 sweep passed, 1 judge failures, 2 usage error or a sweep that could not
// run (including one that fires no schedule).

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/fault/torture.h"

namespace {

constexpr char kUsage[] =
    "usage: invfs_torture [--net-faults] [--seed N] [--txns N] [--files N] "
    "[--buffers N] [--occurrences N] [--write-schedules N] [--no-points] "
    "[--no-write-sweep] [--quick] [--under-load] [--verbose]\n";

[[noreturn]] void Usage(const char* why, const char* what) {
  std::fprintf(stderr, "invfs_torture: %s %s\n%s", why, what, kUsage);
  std::exit(2);
}

// The whole of `text` as a number no larger than `max`, or exit 2.
uint64_t ParseNumber(const char* flag, const char* text,
                     uint64_t max = UINT64_MAX) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || v > max) {
    std::fprintf(stderr, "invfs_torture: bad value '%s' for %s\n", text, flag);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  invfs::TortureOptions opt;
  const char* device_only = nullptr;  // a device-domain flag, if one was given
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto number = [&](uint64_t max = UINT64_MAX) {
      if (i + 1 >= argc) {
        Usage("missing value for", a);
      }
      return ParseNumber(a, argv[++i], max);
    };
    if (std::strcmp(a, "--net-faults") == 0) {
      opt.domain = invfs::FaultDomain::kWire;
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = number();
    } else if (std::strcmp(a, "--txns") == 0) {
      opt.transactions = static_cast<int>(number(INT_MAX));
    } else if (std::strcmp(a, "--files") == 0) {
      opt.max_files = static_cast<int>(number(INT_MAX));
    } else if (std::strcmp(a, "--buffers") == 0) {
      opt.buffers = number(SIZE_MAX);
    } else if (std::strcmp(a, "--occurrences") == 0) {
      opt.occurrences_per_point = number();
    } else if (std::strcmp(a, "--write-schedules") == 0) {
      opt.write_sweep_schedules = number();
      device_only = a;
    } else if (std::strcmp(a, "--no-points") == 0) {
      opt.occurrences_per_point = 0;
      device_only = a;
    } else if (std::strcmp(a, "--no-write-sweep") == 0) {
      opt.write_sweep_schedules = 0;
      device_only = a;
    } else if (std::strcmp(a, "--quick") == 0) {
      opt.transactions = 10;
      opt.occurrences_per_point = 2;
      opt.write_sweep_schedules = 12;
    } else if (std::strcmp(a, "--under-load") == 0) {
      opt.under_load = true;
      device_only = a;
    } else if (std::strcmp(a, "--verbose") == 0) {
      opt.verbose = true;
    } else {
      Usage("unknown flag", a);
    }
  }
  if (opt.domain == invfs::FaultDomain::kWire && device_only != nullptr) {
    Usage("--net-faults cannot take the device-domain flag", device_only);
  }

  auto report = invfs::RunTorture(opt);
  if (!report.ok()) {
    std::fprintf(stderr, "invfs_torture: %s\n",
                 report.status().message().c_str());
    return 2;
  }
  for (const auto& [point, count] : report->crash_points) {
    std::printf("crash point: %s x %llu\n", point.c_str(),
                static_cast<unsigned long long>(count));
  }
  for (const auto& [site, count] : report->fired) {
    std::printf("fired: %s x %llu\n", site.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("%s\n", report->Summary().c_str());
  return report->ok() ? 0 : 1;
}
