#include "record.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "cpu_clock.hpp"

namespace perfbench {

namespace {

thread_local std::vector<std::int64_t> t_open;  // innermost open Scope last
thread_local std::int64_t t_run = 0;

}  // namespace

double Recorder::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::int64_t Recorder::open(std::string name, std::int64_t parent,
                            std::int64_t run) {
  if (!enabled_) return -1;
  const double wall = wall_now();
  const double cpu = thread_cpu_seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), cpu, cpu, parent, run, wall, wall});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Recorder::close(std::int64_t id) {
  if (id < 0) return;
  const double cpu = thread_cpu_seconds();
  const double wall = wall_now();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = cpu;
  span.wall_end = wall;
}

std::vector<Span> Recorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Recorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

void set_thread_run(std::int64_t run) { t_run = run; }

Scope::Scope(std::string name) {
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  id_ = recorder().open(std::move(name), parent, t_run);
  if (id_ >= 0) t_open.push_back(id_);
}

Scope::~Scope() {
  if (id_ < 0) return;
  recorder().close(id_);
  t_open.pop_back();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the union of intervals seen so far
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      const double to = std::min(b, hi);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(b, hi));
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, Rollup> rollup_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, Rollup> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Rollup& r = out[spans[i].name];
    r.total += spans[i].end - spans[i].start;
    r.self += self[i];
    ++r.count;
  }
  return out;
}

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, double> self_by_layer(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[std::string(layer_of(spans[i].name))] += self[i];
  return out;
}

Rollup sum_prefix(const std::map<std::string, Rollup>& rollups,
                  std::string_view prefix) {
  Rollup sum;
  for (const auto& [name, r] : rollups) {
    if (std::string_view(name).substr(0, prefix.size()) != prefix) continue;
    sum.total += r.total;
    sum.self += r.self;
    sum.count += r.count;
  }
  return sum;
}

bool write_spans_json(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  os << "[\n";
  char buf[200];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "\", \"wall_start\": %.9f, \"wall_end\": %.9f, "
                  "\"cpu_s\": %.9f, \"parent\": %lld, \"run\": %lld}",
                  s.wall_start, s.wall_end, s.end - s.start,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.run));
    os << "  {\"name\": \"" << s.name << buf
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
