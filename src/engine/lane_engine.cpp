#include "engine/lane_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "cm/no_cm.hpp"
#include "net/no_loss.hpp"

namespace ccd {

namespace {

std::vector<EngineWorld> one_world(EngineWorld world) {
  std::vector<EngineWorld> worlds;
  worlds.push_back(std::move(world));
  return worlds;
}

/// Sort one receiver's range of the arena.  Ranges of 0-2 messages (every
/// capture receiver, most lossy ones) take at most one compare-swap; equal
/// Messages are byte-identical, so every correct sort yields the same
/// bytes.  Forced inline: GCC otherwise keeps it out of line for the sake
/// of the std::sort inside, and every receiver -- most hold 0-2 messages
/// -- then pays a call.
[[gnu::always_inline]] inline void sort_range(Message* first,
                                              std::uint32_t count) {
  if (count == 2) {
    if (first[1] < first[0]) std::swap(first[0], first[1]);
  } else if (count > 2) {
    std::sort(first, first + count);
  }
}

}  // namespace

LaneEngine::LaneEngine(EngineWorld world, EngineOptions options)
    : LaneEngine(one_world(std::move(world)), options) {}

LaneEngine::LaneEngine(std::vector<EngineWorld> worlds, EngineOptions options)
    : lanes_(worlds.size()), options_(options), worlds_(std::move(worlds)) {
  assert(lanes_ >= 1 && lanes_ <= kLaneWidth);
  n_ = worlds_[0].world.processes.size();
  words_ = mask_words(n_);
  for ([[maybe_unused]] const EngineWorld& ew : worlds_) {
    assert(ew.world.processes.size() == n_);
    assert(ew.topology.size() == n_);
    assert(ew.channel == worlds_[0].channel);
    assert(ew.scope == worlds_[0].scope);
    assert(ew.scope == CollisionScope::kLocal || ew.topology.is_clique());
    assert(ew.world.initial_values.empty() ||
           ew.world.initial_values.size() == n_);
  }

  // Shared adjacency bit rows (all lanes run the same graph; lane 0's
  // topology is the canonical copy).
  adj_.assign(n_ * words_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::uint32_t j : worlds_[0].topology.neighbors(i)) {
      adj_[i * words_ + j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }

  active_ = lanes_ == kLaneWidth ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << lanes_) - 1;
  const std::uint64_t all_lanes = active_;

  alive_.assign(lanes_, ProcessSet(n_, true));
  halted_.assign(lanes_, ProcessSet(n_));
  participating_.assign(lanes_, ProcessSet(n_));
  sent_.assign(lanes_, ProcessSet(n_));
  crash_.assign(lanes_, ProcessSet(n_));
  alive_lw_.assign(n_, all_lanes);
  decided_lw_.assign(n_, 0);

  cm_advice_.resize(lanes_);
  cd_advice_.resize(lanes_);
  recv_count_.resize(lanes_);
  local_c_.resize(lanes_);
  sent_msg_.resize(lanes_);
  counters_.resize(lanes_);
  decided_value_.resize(lanes_);
  total_broadcasts_.assign(lanes_, 0);
  crashes_applied_.assign(lanes_, 0);
  num_alive_.assign(lanes_, n_);
  broadcaster_count_.assign(lanes_, 0);
  results_.resize(lanes_);
  logs_.reserve(lanes_);
  link_rng_.reserve(lanes_);
  max_degree_ = n_ > 0 ? worlds_[0].topology.max_degree() : 0;
  broadcasting_neighbors_.reserve(max_degree_);
  recv_off_.assign(n_, 0);

  for (std::size_t l = 0; l < lanes_; ++l) {
    World& w = worlds_[l].world;
    // Degenerate-world robustness: a caller-assembled World may omit
    // components.  Substitute the neutral element for each rather than
    // dereferencing null mid-round: NoCM (everyone active), the NoCD
    // detector (no information), a perfect channel, no failures.
    if (!w.cm) w.cm = std::make_unique<NoCm>();
    if (!w.cd) {
      w.cd = std::make_unique<OracleDetector>(DetectorSpec::NoCD(),
                                              make_truthful_policy());
    }
    if (!w.loss) w.loss = std::make_unique<NoLoss>();
    if (!w.fault) w.fault = std::make_unique<NoFailures>();

    link_rng_.emplace_back(worlds_[l].link_seed);
    logs_.emplace_back(n_, options_.record_views && options_.record_rounds);
    for (std::size_t i = 0; i < w.initial_values.size(); ++i) {
      logs_[l].set_initial_value(static_cast<ProcessId>(i),
                                 w.initial_values[i]);
    }

    cd_advice_[l].assign(n_, CdAdvice::kNull);
    cm_advice_[l].reserve(n_);
    recv_count_[l].assign(n_, 0);
    local_c_[l].assign(n_, 0);
    sent_msg_[l].resize(n_);
    decided_value_[l].assign(n_, kNoValue);

    for (std::size_t i = 0; i < n_; ++i) note_halt_state(l, i);
  }
  if (worlds_[0].channel == ChannelModel::kMatrix) delivery_.reset(n_, false);
}

bool LaneEngine::all_correct_decided(std::size_t l) const {
  const std::uint64_t bit = std::uint64_t{1} << l;
  for (std::size_t i = 0; i < n_; ++i) {
    if ((alive_lw_[i] & ~decided_lw_[i]) & bit) return false;
  }
  return true;
}

void LaneEngine::note_halt_state(std::size_t l, std::size_t i) {
  halted_[l].set(i, worlds_[l].world.processes[i]->halted());
}

void LaneEngine::commit_crashes(std::size_t l, Round r) {
  const std::uint64_t lane_bit = std::uint64_t{1} << l;
  ProcessSet& alive = alive_[l];
  ProcessSet& part = participating_[l];
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    const std::uint64_t hit = crash_[l].data()[wdx] & alive.data()[wdx];
    for_each_bit(hit, wdx * 64, [&](std::size_t i) {
      alive.unset(i);
      part.unset(i);
      alive_lw_[i] &= ~lane_bit;
      // kLocal: a dead radio's detector advice reads null from now on
      // (D_r only advises the living).
      if (local()) cd_advice_[l][i] = CdAdvice::kNull;
      --num_alive_[l];
      ++crashes_applied_[l];
      logs_[l].record_crash(static_cast<ProcessId>(i), r);
    });
  }
}

Message* LaneEngine::arena(std::size_t bound) {
  if (arena_.size() < bound) arena_.resize(bound);
  return arena_.data();
}

void LaneEngine::deliver_matrix_global(std::size_t l, Round r) {
  World& w = worlds_[l].world;
  const std::uint64_t* sent = sent_[l].data();
  const std::vector<Message>& msg = sent_msg_[l];
  const ProcessSet& part = participating_[l];
  const std::uint32_t bc = broadcaster_count_[l];
  std::vector<std::uint32_t>& rc = recv_count_[l];
  std::fill(rc.begin(), rc.end(), 0);

  if (w.loss->always_delivers()) {
    // Loss-free clique: every participating receiver observes the SAME
    // multiset -- every broadcast, self-delivery included -- so build and
    // sort it once and point every receiver at that one range.
    Message* out = arena(bc);
    std::uint32_t k = 0;
    for (std::size_t sw = 0; sw < words_; ++sw) {
      for_each_bit(sent[sw], sw * 64,
                   [&](std::size_t j) { out[k++] = msg[j]; });
    }
    sort_range(out, k);
    part.for_each([&](std::size_t i) {
      recv_off_[i] = 0;
      rc[i] = k;
      counters_[l].messages_delivered += k;
    });
    return;
  }

  // The adversary contract: a reset matrix in, delivery decisions out.
  // Self-delivery (Definition 11, constraint 5) is ORed into each
  // receiver's own row below rather than written into the matrix.
  delivery_.reset(n_, false);
  w.loss->decide_delivery(r, sent_[l], delivery_);

  // Clique: the receiver set is the participation mask, and receiver i's
  // messages are the set bits of sent & (row(i) | {i}) -- non-senders and
  // lost messages are never visited.  No receiver hears more than the bc
  // broadcasts.
  Message* out = arena(part.count() * bc);
  std::uint32_t off = 0;
  part.for_each([&](std::size_t i) {
    const std::uint64_t* row = delivery_.row(i);
    const std::size_t self_word = i / 64;
    const std::uint64_t self_bit = std::uint64_t{1} << (i % 64);
    std::uint32_t k = off;
    for (std::size_t sw = 0; sw < words_; ++sw) {
      const std::uint64_t heard = row[sw] | (sw == self_word ? self_bit : 0);
      for_each_bit(sent[sw] & heard, sw * 64,
                   [&](std::size_t j) { out[k++] = msg[j]; });
    }
    recv_off_[i] = off;
    rc[i] = k - off;
    sort_range(out + off, rc[i]);
    counters_[l].messages_delivered += rc[i];
    off = k;
  });
}

void LaneEngine::deliver_matrix_local(std::size_t l, Round r) {
  World& w = worlds_[l].world;
  const std::uint64_t* sent = sent_[l].data();
  const std::vector<Message>& msg = sent_msg_[l];
  const ProcessSet& alive = alive_[l];
  std::vector<std::uint32_t>& rc = recv_count_[l];
  std::vector<std::uint32_t>& lc = local_c_[l];
  std::fill(rc.begin(), rc.end(), 0);
  std::fill(lc.begin(), lc.end(), 0);

  const bool all = w.loss->always_delivers();
  if (!all) {
    delivery_.reset(n_, false);
    w.loss->decide_delivery(r, sent_[l], delivery_);
  }

  // Ground-truth contention c_i is counted over the neighborhood whether or
  // not anything was delivered; the adversary's matrix is masked by
  // adjacency, so receiver i hears its own broadcast plus the set bits of
  // sent & adj(i) & row(i) -- at most one message per closed neighbor.
  const std::size_t fan_in =
      std::min<std::size_t>(broadcaster_count_[l], max_degree_ + 1);
  Message* out = arena(alive.count() * fan_in);
  std::uint32_t off = 0;
  alive.for_each([&](std::size_t i) {
    std::uint32_t k = off;
    std::uint32_t c = 0;
    if (sent_[l][i]) {
      ++c;                   // own broadcast counts toward c_i
      out[k++] = msg[i];     // and is always self-delivered
    }
    const std::uint64_t* adj = &adj_[i * words_];
    const std::uint64_t* row = all ? nullptr : delivery_.row(i);
    for (std::size_t sw = 0; sw < words_; ++sw) {
      const std::uint64_t heard = sent[sw] & adj[sw];
      c += static_cast<std::uint32_t>(std::popcount(heard));
      for_each_bit(all ? heard : heard & row[sw], sw * 64,
                   [&](std::size_t j) { out[k++] = msg[j]; });
    }
    recv_off_[i] = off;
    rc[i] = k - off;
    sort_range(out + off, rc[i]);
    counters_[l].messages_delivered += rc[i];
    lc[i] = c;
    off = k;
  });
}

void LaneEngine::deliver_capture(std::size_t l) {
  const std::uint64_t* sent = sent_[l].data();
  const std::vector<Message>& msg = sent_msg_[l];
  const ProcessSet& alive = alive_[l];
  const MhLinkModel& link = worlds_[l].link;
  Rng& rng = link_rng_[l];
  std::vector<std::uint32_t>& rc = recv_count_[l];
  std::vector<std::uint32_t>& lc = local_c_[l];
  std::fill(rc.begin(), rc.end(), 0);
  std::fill(lc.begin(), lc.end(), 0);

  // Receivers ascending, dead skipped WITHOUT consuming randomness: the
  // per-lane link RNG stream is part of the lane contract.  A receiver
  // hears at most its own broadcast and one captured neighbor.
  Message* out = arena(2 * alive.count());
  std::uint32_t off = 0;
  alive.for_each([&](std::size_t i) {
    std::uint32_t k = off;
    broadcasting_neighbors_.clear();
    const std::uint64_t* adj = &adj_[i * words_];
    for (std::size_t sw = 0; sw < words_; ++sw) {
      for_each_bit(sent[sw] & adj[sw], sw * 64, [&](std::size_t j) {
        broadcasting_neighbors_.push_back(static_cast<std::uint32_t>(j));
      });
    }
    std::uint32_t c =
        static_cast<std::uint32_t>(broadcasting_neighbors_.size());
    if (sent_[l][i]) {
      ++c;
      out[k++] = msg[i];
    }
    if (broadcasting_neighbors_.size() == 1) {
      if (rng.chance(link.p_single)) {
        out[k++] = msg[broadcasting_neighbors_.front()];
      }
    } else if (broadcasting_neighbors_.size() > 1) {
      if (rng.chance(link.p_capture)) {
        out[k++] = msg[broadcasting_neighbors_[rng.below(
            broadcasting_neighbors_.size())]];
      }
    }
    recv_off_[i] = off;
    rc[i] = k - off;
    sort_range(out + off, rc[i]);
    counters_[l].messages_delivered += rc[i];
    lc[i] = c;
    off = k;
  });
}

void LaneEngine::lane_round(std::size_t l, Round r,
                            obs::EnginePhases* timed) {
  using obs::EnginePhase;
  obs::PhaseClock clock(timed);
  World& w = worlds_[l].world;
  const bool local = this->local();
  obs::EngineCounters& ctr = counters_[l];
  ++ctr.rounds;

  // Participation snapshot for this round: alive and not halted.  Both
  // flags are event-maintained (crash commits, halt memoization), so the
  // snapshot is W word ops instead of n halted() probes.
  ProcessSet& part = participating_[l];
  const std::uint64_t* alive = alive_[l].data();
  const std::uint64_t* halted = halted_[l].data();
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    part.data()[wdx] = alive[wdx] & ~halted[wdx];
  }

  // W_r: contention advice.
  w.cm->advise(r, part, cm_advice_[l]);
  cm_advice_[l].resize(n_, CmAdvice::kPassive);
  ++ctr.cm_advice_calls;
  clock.lap(EnginePhase::kCm);

  const bool faults = !w.fault->never_crashes();

  // Crash point A (kBeforeSend): marked processes are silent from round r
  // on.
  if (faults) {
    crash_[l].clear();
    w.fault->crash_before_send(r, alive_[l], crash_[l]);
    const std::uint64_t pre = crashes_applied_[l];
    commit_crashes(l, r);
    ctr.crashes_before_send += crashes_applied_[l] - pre;
  }
  clock.lap(EnginePhase::kCrash);

  // M_r: message assignments.  Senders land as set bits; the message slot
  // is valid iff the bit is (no per-round optional churn).
  ProcessSet& sent = sent_[l];
  sent.clear();
  std::uint32_t& bc = broadcaster_count_[l];
  bc = 0;
  part.for_each([&](std::size_t i) {
    std::optional<Message> m = w.processes[i]->on_send(r, cm_advice_[l][i]);
    if (m.has_value()) {
      sent_msg_[l][i] = *m;
      sent.set(i);
      ++bc;
      ++total_broadcasts_[l];
    }
    note_halt_state(l, i);
  });
  clock.lap(EnginePhase::kSend);

  // Crash point B (kAfterSend): the round-r message is out, the transition
  // is not taken.  kLocal commits immediately; kGlobal defers so the
  // crasher's round-r view still forms.
  const std::uint64_t pre_b = crashes_applied_[l];
  if (faults) {
    crash_[l].clear();
    w.fault->crash_after_send(r, alive_[l], crash_[l]);
    if (local) commit_crashes(l, r);
  }
  clock.lap(EnginePhase::kCrash);

  // N_r: receive multisets, one arena range per receiver.
  if (worlds_[0].channel == ChannelModel::kMatrix) {
    if (local) {
      deliver_matrix_local(l, r);
    } else {
      deliver_matrix_global(l, r);
    }
  } else {
    deliver_capture(l);
  }
  clock.lap(EnginePhase::kDelivery);

  ctr.messages_sent += bc;

  // D_r: collision detector advice -- one global oracle call on a clique,
  // per-neighborhood (c_i, t_i) otherwise.
  if (!local) {
    w.cd->advise(r, bc, recv_count_[l], cd_advice_[l]);
    ++ctr.cd_advice_calls;
    if (bc >= 2) ++ctr.collisions;
  } else {
    alive_[l].for_each([&](std::size_t i) {
      cd_advice_[l][i] = w.cd->advise_local(r, static_cast<ProcessId>(i),
                                            local_c_[l][i],
                                            recv_count_[l][i]);
      ++ctr.cd_advice_calls;
      if (local_c_[l][i] >= 2) ++ctr.collisions;
    });
  }
  w.cm->observe(r, bc);
  clock.lap(EnginePhase::kCd);  // observe() is one call: not worth a lap

  // C_r: transitions (skipped for processes crashing this round).  kLocal
  // consults the LIVE halted flag (a process that halted inside its own
  // on_send takes no transition); kGlobal uses the round-start snapshot
  // minus this round's after-send crashers (crash_ stays empty when the
  // lane has no failure adversary).
  const std::uint64_t lane_bit = std::uint64_t{1} << l;
  const std::uint64_t* crash_b = crash_[l].data();
  for (std::size_t wdx = 0; wdx < words_; ++wdx) {
    const std::uint64_t takers = local ? alive[wdx] & ~halted[wdx]
                                       : part.data()[wdx] & ~crash_b[wdx];
    for_each_bit(takers, wdx * 64, [&](std::size_t i) {
      Process& p = *w.processes[i];
      p.on_receive(r, inbox(l, i), cd_advice_[l][i], cm_advice_[l][i]);
      note_halt_state(l, i);
      if (decided_value_[l][i] == kNoValue && p.decided()) {
        decided_value_[l][i] = p.decision();
        decided_lw_[i] |= lane_bit;
        logs_[l].record_decision(static_cast<ProcessId>(i), r,
                                 decided_value_[l][i]);
      }
    });
  }
  clock.lap(EnginePhase::kReceive);
  if (!local && faults) commit_crashes(l, r);
  ctr.crashes_after_send += crashes_applied_[l] - pre_b;
  clock.lap(EnginePhase::kCrash);
  if (options_.record_rounds) record_round(l);
}

void LaneEngine::record_round(std::size_t l) {
  TransmissionRound tr;
  tr.broadcaster_count = broadcaster_count_[l];
  tr.receive_count = recv_count_[l];
  std::vector<RoundView> views;
  if (logs_[l].views_recorded()) {
    views.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      RoundView& v = views[i];
      if (sent_[l][i]) v.sent = sent_msg_[l][i];
      // A receiver's multiset was rebuilt this round iff its count is
      // nonzero; every other receiver observed the empty multiset.
      if (recv_count_[l][i] > 0) {
        const std::span<const Message> in = inbox(l, i);
        v.received.assign(in.begin(), in.end());
      }
      v.cd = cd_advice_[l][i];
      v.cm = cm_advice_[l][i];
      v.crashed = !alive_[l][i];
    }
  }
  logs_[l].push_round(std::move(tr), cd_advice_[l], cm_advice_[l],
                      std::move(views));
}

void LaneEngine::step() {
  if (!active_) return;  // every lane retired: the clock stops too
  const Round r = ++round_;
  for_each_bit(active_, 0, [&](std::size_t l) {
    obs::EnginePhases* timed = nullptr;
    if (options_.phases && options_.phases->round_due()) [[unlikely]] {
      timed = &options_.phases->totals();
      ++timed->sampled_rounds;
    }
    lane_round(l, r, timed);
  });
}

void LaneEngine::retire(std::size_t l) {
  assert(lane_active(l));
  RunResult& result = results_[l];
  result.rounds_executed = round_;
  result.all_correct_decided = all_correct_decided(l);
  result.last_decision_round = 0;
  for (const DecisionRecord& d : logs_[l].decisions()) {
    if (alive(l, d.process) && d.round > result.last_decision_round) {
      result.last_decision_round = d.round;
    }
  }
  result.num_crashed = static_cast<std::uint32_t>(n_ - num_alive_[l]);
  active_ &= ~(std::uint64_t{1} << l);
}

void LaneEngine::run(Round max_rounds) {
  // n = 0: no process can ever send, decide or crash; every consensus
  // property holds vacuously.  Retire instead of spinning max_rounds empty
  // rounds (which stop_when_all_decided = false would do).
  if (n_ == 0) {
    for_each_bit(active_, 0, [&](std::size_t l) { retire(l); });
    return;
  }
  while (active_) {
    if (options_.stop_when_all_decided) {
      termination_sweep([&] {
        // Which lanes still hold an undecided correct process: one
        // AND-NOT per process covers all 64 seeds at once.
        std::uint64_t undecided = 0;
        for (std::size_t i = 0; i < n_; ++i) {
          undecided |= alive_lw_[i] & ~decided_lw_[i];
        }
        for_each_bit(active_ & ~undecided, 0,
                     [&](std::size_t l) { retire(l); });
      });
      if (!active_) return;
    }
    if (round_ >= max_rounds) break;
    step();
  }
  for_each_bit(active_, 0, [&](std::size_t l) { retire(l); });
}

}  // namespace ccd
