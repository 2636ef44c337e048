#include "common/trace.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/json_writer.h"

namespace mvstore {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

TraceEvent* Tracer::Find(const TraceContext& ctx) {
  if (!ctx || ring_.empty()) return nullptr;
  const std::size_t slot = (ctx.span - 1) % capacity_;
  if (slot >= ring_.size()) return nullptr;
  TraceEvent& event = ring_[slot];
  // The slot may have been recycled for a newer span after eviction.
  return event.span == ctx.span ? &event : nullptr;
}

TraceContext Tracer::Append(TraceEvent event) {
  const TraceContext ctx{event.trace, event.span};
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return ctx;
  }
  // Ring full: the span evicts the oldest one, which held its slot.
  ring_[(event.span - 1) % capacity_] = std::move(event);
  ++evicted_;
  return ctx;
}

TraceContext Tracer::StartTrace(const std::string& name, int where,
                                SimTime now) {
  if (!enabled()) return TraceContext{};
  TraceEvent event;
  event.trace = ++next_trace_;
  event.span = ++next_span_;
  event.parent = 0;
  event.name = name;
  event.where = where;
  event.start = now;
  return Append(std::move(event));
}

TraceContext Tracer::StartSpan(const TraceContext& parent,
                               const std::string& name, int where,
                               SimTime now) {
  if (!enabled() || !parent) return TraceContext{};
  TraceEvent event;
  event.trace = parent.trace;
  event.span = ++next_span_;
  event.parent = parent.span;
  event.name = name;
  event.where = where;
  event.start = now;
  return Append(std::move(event));
}

void Tracer::EndSpan(const TraceContext& ctx, SimTime now) {
  if (TraceEvent* event = Find(ctx)) event->end = now;
}

void Tracer::Annotate(const TraceContext& ctx, const std::string& note) {
  TraceEvent* event = Find(ctx);
  if (event == nullptr) return;
  if (!event->note.empty()) event->note += "; ";
  event->note += note;
}

void Tracer::Mark(const TraceContext& parent, const std::string& name,
                  int where, SimTime now, const std::string& note) {
  const TraceContext span = StartSpan(parent, name, where, now);
  if (!span) return;
  if (!note.empty()) Annotate(span, note);
  EndSpan(span, now);
}

std::vector<TraceEvent> Tracer::Collect(TraceId trace) const {
  std::vector<TraceEvent> events;
  if (trace == 0) return events;
  for (const TraceEvent& event : ring_) {
    if (event.trace == trace) events.push_back(event);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.span < b.span;
            });
  return events;
}

bool Tracer::IsConnected(TraceId trace) const {
  const std::vector<TraceEvent> events = Collect(trace);
  if (events.empty()) return false;
  std::set<SpanId> spans;
  for (const TraceEvent& event : events) spans.insert(event.span);
  int roots = 0;
  for (const TraceEvent& event : events) {
    if (event.parent == 0) {
      ++roots;
    } else if (spans.count(event.parent) == 0) {
      return false;  // orphan: parent missing (evicted or foreign)
    }
  }
  return roots == 1;
}

std::string Tracer::DumpJson(TraceId trace) const {
  JsonWriter json;
  json.BeginObject();
  json.Key("trace").Value(trace);
  json.Key("events").BeginArray();
  for (const TraceEvent& event : Collect(trace)) {
    json.BeginObject();
    json.Key("span").Value(event.span);
    json.Key("parent").Value(event.parent);
    json.Key("name").Value(event.name);
    json.Key("where").Value(event.where);
    json.Key("start_us").Value(event.start);
    json.Key("end_us").Value(event.end);
    if (!event.note.empty()) json.Key("note").Value(event.note);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace mvstore
