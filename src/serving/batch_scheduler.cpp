#include "serving/batch_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <utility>

#include "util/logging.hpp"

namespace a3 {

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

}  // namespace

const char *
servingErrorName(ServingError error)
{
    switch (error) {
    case ServingError::None:
        return "none";
    case ServingError::SessionUnbound:
        return "session_unbound";
    case ServingError::DeadlineExpired:
        return "deadline_expired";
    }
    return "unknown";
}

BatchScheduler::BatchScheduler(AttentionEngine &engine,
                               SessionCache &cache,
                               std::size_t maxBatch,
                               AdmissionPolicy policy)
    : engine_(engine), cache_(cache), maxBatch_(maxBatch),
      policy_(policy)
{
}

AdmissionOutcome
BatchScheduler::submit(const std::string &session, Vector query)
{
    return submit(session, std::move(query), SubmitOptions{});
}

AdmissionOutcome
BatchScheduler::submit(const SessionHandle &session, Vector query)
{
    return submit(session, std::move(query), SubmitOptions{});
}

AdmissionOutcome
BatchScheduler::submit(const SessionHandle &session, Vector query,
                       const SubmitOptions &options)
{
    a3Assert(session.valid(),
             "cannot submit against an invalid session handle");
    return submit(session.id(), std::move(query), options);
}

AdmissionOutcome
BatchScheduler::submit(const std::string &session, Vector query,
                       const SubmitOptions &options)
{
    // Estimated cost before taking the scheduler lock: peekBytes
    // holds only the cache's own lock, touches neither LRU order nor
    // hit/miss counters, and reads 0 for an unbound session.
    const std::size_t cost = policy_.maxQueuedCostBytes != 0
                                 ? cache_.peekBytes(session)
                                 : 0;
    const double submitSeconds = nowSeconds();

    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.submitted;
    if (policy_.maxQueueDepth != 0 &&
        pendingCount_ >= policy_.maxQueueDepth) {
        ++counters_.rejectedQueueFull;
        return {AdmissionDecision::RejectedQueueFull, 0};
    }
    // The adaptive bound: a queue deeper than target-latency / p95
    // service time cannot meet the target however it is ordered.
    // adaptiveDepth_ stays 0 (inactive) until drains have landed
    // service samples, so a cold scheduler admits everything.
    if (policy_.targetLatencySeconds > 0.0 && adaptiveDepth_ != 0 &&
        pendingCount_ >= adaptiveDepth_) {
        ++counters_.rejectedAdaptiveDepth;
        return {AdmissionDecision::RejectedAdaptiveDepth, 0};
    }
    // Look up without inserting: a shed submit must not leave a
    // session entry behind (state is only materialized on admission,
    // and drain() reclaims it once the session idles again).
    auto it = sessions_.find(session);
    if (policy_.maxPendingPerSession != 0 && it != sessions_.end() &&
        it->second.pendingTotal >= policy_.maxPendingPerSession) {
        ++counters_.rejectedSessionCap;
        return {AdmissionDecision::RejectedSessionCap, 0};
    }
    // The cost budget never rejects into an empty queue: a session
    // costlier than the whole budget must still make progress
    // (mirrors the cache's never-evict-the-newest-bind rule).
    if (policy_.maxQueuedCostBytes != 0 && pendingCount_ > 0 &&
        queuedCostBytes_ + cost > policy_.maxQueuedCostBytes) {
        ++counters_.rejectedCostBudget;
        return {AdmissionDecision::RejectedCostBudget, 0};
    }
    // A deadline the queue already makes unmeetable is shed now, not
    // after it has waited its budget out: the requests ahead of it
    // alone are expected to take pendingCount_ × p95 service time.
    // Never rejects into an empty queue, and inactive until the
    // service reservoir has samples.
    if (options.deadlineSeconds > 0.0 && serviceP95_ > 0.0 &&
        pendingCount_ > 0 &&
        static_cast<double>(pendingCount_) * serviceP95_ >
            options.deadlineSeconds) {
        ++counters_.rejectedDeadlineUnmeetable;
        return {AdmissionDecision::RejectedDeadlineUnmeetable, 0};
    }

    if (it == sessions_.end())
        it = sessions_.emplace(session, SessionState{}).first;
    SessionState &state = it->second;
    ClassLane *lane = nullptr;
    for (ClassLane &candidate : state.lanes) {
        if (candidate.klass == options.requestClass) {
            lane = &candidate;
            break;
        }
    }
    if (lane == nullptr) {
        state.lanes.push_back(ClassLane{options.requestClass, {}, 0});
        lane = &state.lanes.back();
    }
    const std::uint64_t ticket = nextTicket_++;
    if (state.pendingTotal == 0)
        activeOrder_.push_back(session);
    lane->pending.push_back({ticket, std::move(query), submitSeconds,
                             cost, options.deadlineSeconds});
    ++state.pendingTotal;
    ++pendingCount_;
    queuedCostBytes_ += cost;
    return {AdmissionDecision::Admitted, ticket};
}

void
BatchScheduler::setSessionWeight(const std::string &session,
                                 std::size_t weight)
{
    a3Assert(weight > 0, "session weight must be positive");
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
        // Only a non-default weight is worth materializing state
        // for; idle default-weight sessions hold no entry at all.
        if (weight != 1)
            sessions_.emplace(session, SessionState{}).first
                ->second.weight = weight;
        return;
    }
    it->second.weight = weight;
    if (weight == 1 && it->second.pendingTotal == 0)
        sessions_.erase(it);
}

void
BatchScheduler::setClassWeight(const std::string &klass,
                               std::size_t weight)
{
    a3Assert(weight > 0, "class weight must be positive");
    const std::lock_guard<std::mutex> lock(mutex_);
    if (weight == 1)
        classWeights_.erase(klass);
    else
        classWeights_[klass] = weight;
}

std::size_t
BatchScheduler::classWeightLocked(const std::string &klass) const
{
    const auto it = classWeights_.find(klass);
    return it == classWeights_.end() ? 1 : it->second;
}

std::size_t
BatchScheduler::classWeight(const std::string &klass) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return classWeightLocked(klass);
}

std::size_t
BatchScheduler::adaptiveQueueDepth() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return adaptiveDepth_;
}

std::size_t
BatchScheduler::sessionWeight(const std::string &session) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session);
    return it == sessions_.end() ? 1 : it->second.weight;
}

BatchSchedulerStats
BatchScheduler::stats() const
{
    // Copy the counters and raw reservoir windows under the lock,
    // then sort and interpolate after releasing it: a monitoring
    // thread polling stats() must not stall submit()/drain() claims
    // for the duration of three sorts, inflating the very queue-wait
    // tails it reports.
    static constexpr double kFractions[3] = {0.50, 0.95, 0.99};
    std::unique_lock<std::mutex> lock(mutex_);
    BatchSchedulerStats out = counters_;
    out.adaptiveQueueDepth = adaptiveDepth_;
    out.requestServiceP95 = serviceP95_;
    const LatencyReservoir waitWindow = queueWait_;
    const LatencyReservoir drainWindow = drainService_;
    const LatencyReservoir groupWindow = groupService_;
    lock.unlock();
    double wait[3];
    double drain[3];
    double group[3];
    waitWindow.percentiles(kFractions, 3, wait);
    drainWindow.percentiles(kFractions, 3, drain);
    groupWindow.percentiles(kFractions, 3, group);
    out.queueWaitP50 = wait[0];
    out.queueWaitP95 = wait[1];
    out.queueWaitP99 = wait[2];
    out.drainServiceP50 = drain[0];
    out.drainServiceP95 = drain[1];
    out.drainServiceP99 = drain[2];
    out.groupServiceP50 = group[0];
    out.groupServiceP95 = group[1];
    out.groupServiceP99 = group[2];
    return out;
}

void
BatchScheduler::resetCounters()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_ = BatchSchedulerStats{};
    queueWait_.clear();
    drainService_.clear();
    groupService_.clear();
    // requestService_ / adaptiveDepth_ / serviceP95_ survive on
    // purpose: they are the admission signal, not a usage counter —
    // clearing them on a bench's post-warm-up reset would blind the
    // adaptive bound exactly when it has just been learned.
}

std::size_t
BatchScheduler::pending() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return pendingCount_;
}

std::size_t
BatchScheduler::pendingFor(const std::string &session) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session);
    return it == sessions_.end() ? 0 : it->second.pendingTotal;
}

std::size_t
BatchScheduler::queuedCostBytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return queuedCostBytes_;
}

std::size_t
BatchScheduler::trackedSessions() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

std::vector<ServingResult>
BatchScheduler::drain()
{
    const double claimSeconds = nowSeconds();

    // Claim this drain's share of the queue by weighted round-robin:
    // each pass over the pending sessions hands every session's
    // class lane up to session-weight × class-weight slots,
    // repeating until the batch is full or the queue empty, so a
    // truncated drain interleaves sessions instead of answering the
    // globally oldest tickets first. Within one lane the FIFO
    // preserves ticket order, and tickets are assigned under the
    // same lock, so the per-lane claim order is the per-lane ticket
    // order. A claimed request whose queue wait has already blown
    // its deadline is shed here with a typed DeadlineExpired
    // completion — it consumes no batch slot, so expired backlog
    // cannot crowd live work out of the pass.
    std::vector<ServingResult> completions;
    std::vector<PendingRequest> batch;
    std::vector<std::string> batchSession;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (pendingCount_ == 0)
            return {};
        const std::size_t take =
            maxBatch_ == 0 ? pendingCount_
                           : std::min(maxBatch_, pendingCount_);
        batch.reserve(take);
        batchSession.reserve(take);
        // Rotate the round-robin start across drains so the leftover
        // slots of a non-divisible maxBatch do not always land on the
        // earliest-arrived session.
        const std::size_t start = static_cast<std::size_t>(
            drainRounds_ % activeOrder_.size());
        ++drainRounds_;
        // Sheds drop pendingCount_ below the precomputed take, so
        // the loop also stops once the queue is empty.
        while (batch.size() < take && pendingCount_ > 0) {
            bool progress = false;
            for (std::size_t i = 0;
                 i < activeOrder_.size() && batch.size() < take &&
                 pendingCount_ > 0;
                 ++i) {
                const std::string &name =
                    activeOrder_[(start + i) % activeOrder_.size()];
                SessionState &state = sessions_[name];
                for (ClassLane &lane : state.lanes) {
                    const std::size_t slots =
                        state.weight * classWeightLocked(lane.klass);
                    std::size_t claimed = 0;
                    while (claimed < slots &&
                           !lane.pending.empty() &&
                           batch.size() < take) {
                        PendingRequest &request =
                            lane.pending.front();
                        // The ordering guarantee across truncation
                        // boundaries: a lane's tickets leave the
                        // queue strictly ascending, drain after
                        // drain.
                        a3Assert(
                            request.ticket > lane.lastClaimedTicket,
                            "session \"", name,
                            "\" would be answered out of ticket "
                            "order");
                        lane.lastClaimedTicket = request.ticket;
                        queuedCostBytes_ -= request.costBytes;
                        --state.pendingTotal;
                        --pendingCount_;
                        progress = true;
                        const double wait =
                            claimSeconds - request.submitSeconds;
                        if (request.deadlineSeconds > 0.0 &&
                            wait > request.deadlineSeconds) {
                            ++counters_.shedDeadlineExpired;
                            queueWait_.add(std::max(0.0, wait));
                            completions.push_back(
                                {request.ticket, name, {},
                                 ServingError::DeadlineExpired});
                            lane.pending.pop_front();
                            continue;  // no batch slot consumed
                        }
                        batchSession.push_back(name);
                        batch.push_back(std::move(request));
                        lane.pending.pop_front();
                        ++claimed;
                    }
                    if (batch.size() >= take)
                        break;
                }
            }
            a3Assert(progress,
                     "round-robin made no progress with requests "
                     "still pending");
        }
        // Retire drained sessions: drop them from the round-robin
        // order and — unless a non-default weight must persist —
        // reclaim their state entirely, so a server minting fresh
        // session ids per conversation does not grow sessions_
        // without bound. Tickets are globally monotonic, so a
        // re-materialized entry (lastClaimedTicket back at 0) still
        // satisfies the per-lane ordering assert.
        activeOrder_.erase(
            std::remove_if(activeOrder_.begin(), activeOrder_.end(),
                           [this](const std::string &name) {
                               const auto entry =
                                   sessions_.find(name);
                               if (entry->second.pendingTotal != 0)
                                   return false;
                               if (entry->second.weight == 1)
                                   sessions_.erase(entry);
                               return true;
                           }),
            activeOrder_.end());
    }

    // Coalesce per session: one request group per distinct session,
    // groups ordered by first claim, queries in ticket order within
    // their group (the claim order). The shared_ptrs pin every
    // backend for the duration of the pass even if the cache evicts
    // the session concurrently. A session unbound at lookup time
    // (evicted between submit and drain, or its backend mid-rebind)
    // completes its claimed requests with a typed SessionUnbound
    // error instead of aborting the server.
    constexpr std::size_t kUnbound =
        std::numeric_limits<std::size_t>::max();
    completions.reserve(completions.size() + batch.size());
    std::vector<AttentionRequestGroup> groups;
    std::vector<std::shared_ptr<AttentionBackend>> pinned;
    std::vector<std::string> sessionOf;
    std::vector<std::vector<std::uint64_t>> ticketsOf;
    /** Minimum remaining deadline budget per group; 0 = none. */
    std::vector<double> groupBudget;
    std::unordered_map<std::string, std::size_t> groupIndex;
    for (std::size_t r = 0; r < batch.size(); ++r) {
        const std::string &session = batchSession[r];
        const auto found = groupIndex.find(session);
        std::size_t g;
        if (found != groupIndex.end()) {
            g = found->second;
        } else {
            std::shared_ptr<AttentionBackend> backend =
                cache_.find(session);
            if (backend == nullptr) {
                g = kUnbound;
            } else {
                g = sessionOf.size();
                sessionOf.push_back(session);
                ticketsOf.emplace_back();
                groupBudget.push_back(0.0);
                groups.push_back({backend.get(), {}});
                pinned.push_back(std::move(backend));
            }
            groupIndex.emplace(session, g);
        }
        if (g == kUnbound) {
            completions.push_back({batch[r].ticket, session, {},
                                   ServingError::SessionUnbound});
            continue;
        }
        if (batch[r].deadlineSeconds > 0.0) {
            // Expired requests were shed at claim time, so the
            // remaining budget is positive here.
            const double remaining =
                batch[r].deadlineSeconds -
                (claimSeconds - batch[r].submitSeconds);
            if (remaining > 0.0 &&
                (groupBudget[g] == 0.0 || remaining < groupBudget[g]))
                groupBudget[g] = remaining;
        }
        groups[g].queries.push_back(std::move(batch[r].query));
        ticketsOf[g].push_back(batch[r].ticket);
    }

    // Publish each group's tightest remaining budget to its backend
    // before the pass: a remote-coordinated session caps its
    // per-query worker waits at the request's actual remaining time
    // instead of the coordinator's static queryDeadlineSeconds, so a
    // request that already spent most of its budget queueing cannot
    // stall the drain for the full static deadline on a sick worker.
    // Every group is published, deadline or not: a budget of 0 clears
    // the hint, so a stale budget from an earlier drain cannot clamp
    // this drain's waits.
    std::size_t hintedGroups = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        groups[g].backend->queryDeadlineHint(groupBudget[g]);
        if (groupBudget[g] > 0.0)
            ++hintedGroups;
    }

    // Local results: each drain owns its buffers, so concurrent
    // drain() calls from different worker threads never share state
    // (the claimed requests are already disjoint). The engine hook
    // writes each group's service time into its own slot — one
    // writer per group, per the GroupCompletionHook contract.
    std::vector<double> groupSeconds(groups.size(), 0.0);
    std::vector<std::vector<AttentionResult>> groupResults;
    const double passStart = nowSeconds();
    engine_.runGroupsInto(groups, groupResults,
                          [&groupSeconds](std::size_t g,
                                          double seconds) {
                              groupSeconds[g] = seconds;
                          });
    const double passSeconds = nowSeconds() - passStart;

    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t q = 0; q < ticketsOf[g].size(); ++q) {
            completions.push_back({ticketsOf[g][q], sessionOf[g],
                                   std::move(groupResults[g][q]),
                                   ServingError::None});
        }
    }
    std::sort(completions.begin(), completions.end(),
              [](const ServingResult &a, const ServingResult &b) {
                  return a.ticket < b.ticket;
              });
    // Flattened work units this pass scheduled: each group's queries
    // × its backend's decomposition (one per shard for a sharded
    // session). Also the denominator-side signal for the adaptive
    // depth: per-request service time, one sample per drain.
    std::size_t passUnits = 0;
    std::size_t executed = 0;
    for (const AttentionRequestGroup &group : groups) {
        passUnits +=
            group.backend->workUnitCount() * group.queries.size();
        executed += group.queries.size();
    }

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        counters_.answered += completions.size();
        counters_.groups += groups.size();
        counters_.workUnits += passUnits;
        counters_.deadlineHintedGroups += hintedGroups;
        // Queue wait is measured submit-to-claim; a submit that raced
        // in between our clock read and the claim lock can look
        // sub-zero by the race window, so clamp at 0.
        for (const PendingRequest &request : batch) {
            queueWait_.add(std::max(
                0.0, claimSeconds - request.submitSeconds));
        }
        for (const double seconds : groupSeconds)
            groupService_.add(seconds);
        // A drain that shed its entire claim ran no engine pass;
        // keep the service reservoirs clean of its ~0s sample.
        if (executed > 0) {
            ++counters_.drains;
            drainService_.add(passSeconds);
            requestService_.add(passSeconds /
                                static_cast<double>(executed));
            serviceP95_ = requestService_.percentile(0.95);
            if (policy_.targetLatencySeconds > 0.0 &&
                serviceP95_ > 0.0) {
                adaptiveDepth_ = std::max(
                    policy_.minAdaptiveQueueDepth,
                    static_cast<std::size_t>(
                        policy_.targetLatencySeconds / serviceP95_));
            }
        }
    }
    return completions;
}

}  // namespace a3
