#include "sim/run_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace proact {

int
envSimShards()
{
    const char *env = std::getenv("PROACT_SIM_SHARDS");
    if (!env || !*env)
        return 0;
    const long v = std::strtol(env, nullptr, 10);
    if (v <= 1)
        return 0;
    return static_cast<int>(std::min<long>(v, 64));
}

void
runIndexed(std::size_t count, int workers,
           const std::function<IndexTask()> &make_task)
{
    const std::size_t threads = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(workers, 1)),
        std::max<std::size_t>(count, 1));
    if (threads == 1) {
        const IndexTask task = make_task();
        for (std::size_t i = 0; i < count; ++i)
            task(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr failure;
    std::mutex failure_mutex;
    auto worker = [&] {
        try {
            const IndexTask task = make_task();
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    break;
                task(i);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure)
                failure = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace proact
