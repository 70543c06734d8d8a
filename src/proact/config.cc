#include "proact/config.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace proact {

std::string
mechanismName(TransferMechanism mechanism)
{
    switch (mechanism) {
      case TransferMechanism::Inline:
        return "inline";
      case TransferMechanism::Polling:
        return "polling";
      case TransferMechanism::Cdp:
        return "cdp";
      case TransferMechanism::Hardware:
        return "hardware";
    }
    return "unknown";
}

std::string
mechanismCode(TransferMechanism mechanism)
{
    switch (mechanism) {
      case TransferMechanism::Inline:
        return "I";
      case TransferMechanism::Polling:
        return "Poll";
      case TransferMechanism::Cdp:
        return "CDP";
      case TransferMechanism::Hardware:
        return "HW";
    }
    return "?";
}

std::string
formatBytes(std::uint64_t bytes)
{
    std::ostringstream oss;
    if (bytes >= GiB && bytes % GiB == 0)
        oss << bytes / GiB << "GB";
    else if (bytes >= MiB && bytes % MiB == 0)
        oss << bytes / MiB << "MB";
    else if (bytes >= KiB && bytes % KiB == 0)
        oss << bytes / KiB << "kB";
    else
        oss << bytes << "B";
    return oss.str();
}

std::string
TransferConfig::toString() const
{
    if (mechanism == TransferMechanism::Inline)
        return "I";
    std::ostringstream oss;
    oss << "D " << formatBytes(chunkBytes) << " " << transferThreads
        << " " << mechanismCode(mechanism);
    return oss.str();
}

std::vector<std::uint64_t>
chunkSizeSweep()
{
    return {4 * KiB,   16 * KiB,  64 * KiB, 128 * KiB,
            256 * KiB, 1 * MiB,   4 * MiB,  16 * MiB};
}

std::vector<std::uint32_t>
threadCountSweep()
{
    return {32, 128, 256, 512, 1024, 2048, 4096, 8192};
}

namespace {

double
envDouble(const char *name, double fallback, double lo, double hi)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env)
        return fallback;
    return std::clamp(v, lo, hi);
}

} // namespace

bool
envFaultsEnabled()
{
    const char *env = std::getenv("PROACT_FAULTS");
    return env != nullptr && *env != '\0'
        && std::string(env) != "0";
}

FaultPlan
envFaultPlan()
{
    FaultPlan plan;
    if (!envFaultsEnabled())
        return plan;

    const char *seed_env = std::getenv("PROACT_FAULT_SEED");
    if (seed_env != nullptr && *seed_env != '\0')
        plan.seed = std::strtoull(seed_env, nullptr, 10);

    const double drop =
        envDouble("PROACT_FAULT_DROP_RATE", 0.01, 0.0, 1.0);
    if (drop > 0.0)
        plan.dropDeliveries(0, maxTick, drop);

    const double degrade =
        envDouble("PROACT_FAULT_DEGRADE", 0.0, 0.0, 0.95);
    if (degrade > 0.0)
        plan.degradeLink(0, maxTick, degrade);

    return plan;
}

int
envNodes()
{
    return static_cast<int>(envDouble("PROACT_NODES", 1.0, 1.0, 64.0));
}

PlatformSpec
envMultiNodePlatform(int gpus_per_node)
{
    const int nodes = envNodes();
    if (nodes <= 1)
        return dgx2Platform();
    return multiNodePlatform(nodes, gpus_per_node);
}

RetryPolicy
envRetryPolicy()
{
    RetryPolicy policy;
    policy.enabled = envFaultsEnabled();

    const char *env = std::getenv("PROACT_RETRY_MAX_ATTEMPTS");
    if (env != nullptr && *env != '\0')
        policy.maxAttempts = std::clamp(std::atoi(env), 1, 16);

    // Env-armed runs always reroute, so retry is reroute-aware: two
    // lost attempts is exactly the streak that can flip a link to
    // DOWN (the first loss plus downAfterLosses reached while retries
    // overlap), so consulting the rerouter then is cheap and never
    // earlier than the health picture can change.
    if (policy.enabled)
        policy.rerouteAfterAttempts = 2;
    return policy;
}

} // namespace proact
