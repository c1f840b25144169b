//! Pseudocode models of the classical problems, sized for exhaustive
//! exploration.
//!
//! Each model mirrors the *observable* structure of the corresponding
//! controlled-executor implementation in [`crate::problems`]: shared
//! state guarded by `EXC_ACC`, observation tokens collected into an
//! `obs` list at the same program points where the runtime records
//! them, and a final loop printing one token per line. The explorer
//! normalizes output to whitespace-separated tokens, so a runtime
//! observation — tokens joined by single spaces — is a member of the
//! model's output set exactly when the model admits that interleaving.
//!
//! The configurations are deliberately tiny (2 philosophers, 2+2 party
//! guests, a capacity-1 buffer, …): small enough that the explorer
//! enumerates every interleaving without truncation, large enough that
//! each problem still has several genuinely different outcomes.

use concur_exec::TerminalSet;

/// Exhaustively explore one model's terminal set through the memoized
/// query layer ([`concur_exec::Session::from_source`]): the first
/// caller per source pays the graph build, every later caller — the
/// fuzz oracle, the real-runtime spot checks, the model unit tests —
/// reads the cached graph. Errors on parse failure, runtime fault, or a
/// truncated exploration (models must be exhaustively explorable).
pub fn explore_model(src: &str) -> Result<TerminalSet, String> {
    let session =
        concur_exec::Session::from_source(src).map_err(|e| format!("model parse: {e}"))?;
    let set = session.terminals().map_err(|e| format!("model explore: {e}"))?;
    if set.stats.truncated {
        return Err("model exploration truncated".into());
    }
    Ok(set)
}

/// [`explore_model`] routed through a shared multi-tenant
/// [`concur_exec::Server`]: concurrent fuzz-oracle shards exploring
/// the same model single-flight into one graph build, and the server's
/// per-tenant ledgers attribute the work. Source-compiled models have
/// stable digests, so a disk-backed server warm-restarts these
/// explorations across processes.
pub fn explore_model_on(
    server: &concur_exec::Server,
    tenant: &str,
    src: &str,
) -> Result<TerminalSet, String> {
    let session = server.owned_session(tenant, src).map_err(|e| format!("model parse: {e}"))?;
    let set = session.terminals().map_err(|e| format!("model explore: {e}"))?;
    if set.stats.truncated {
        return Err("model exploration truncated".into());
    }
    Ok(set)
}

/// Dining philosophers with a global fork order (both take fork 0
/// first). Tokens: philosopher id at the moment it eats, while holding
/// both forks. Deadlock-free.
pub const DINING_ORDERED: &str = r#"
forks = [FALSE, FALSE]
obs = []

DEFINE take(i)
    EXC_ACC
        WHILE forks[i]
            WAIT()
        ENDWHILE
        forks[i] = TRUE
    END_EXC_ACC
ENDDEF

DEFINE put(i)
    EXC_ACC
        forks[i] = FALSE
        NOTIFY()
    END_EXC_ACC
ENDDEF

DEFINE philosopher(id, first, second)
    take(first)
    take(second)
    EXC_ACC
        obs = APPEND(obs, id)
    END_EXC_ACC
    put(second)
    put(first)
ENDDEF

PARA
    philosopher(1, 0, 1)
    philosopher(2, 0, 1)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// Dining philosophers, naive fork order — the circular wait is
/// reachable, so the explorer reports a deadlock alongside the two
/// successful outputs. Runtime runs may deadlock too; the oracle
/// accepts that exactly because the model proves it possible.
pub const DINING_NAIVE: &str = r#"
forks = [FALSE, FALSE]
obs = []

DEFINE take(i)
    EXC_ACC
        WHILE forks[i]
            WAIT()
        ENDWHILE
        forks[i] = TRUE
    END_EXC_ACC
ENDDEF

DEFINE put(i)
    EXC_ACC
        forks[i] = FALSE
        NOTIFY()
    END_EXC_ACC
ENDDEF

DEFINE philosopher(id, first, second)
    take(first)
    take(second)
    EXC_ACC
        obs = APPEND(obs, id)
    END_EXC_ACC
    put(second)
    put(first)
ENDDEF

PARA
    philosopher(1, 0, 1)
    philosopher(2, 1, 0)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// Bounded buffer, capacity 1: two producers (tokens 11,12 and 21,22)
/// and one consumer. Tokens: items in consumption order — the six
/// order-preserving merges of the two producer streams.
pub const BOUNDED_BUFFER: &str = r#"
buffer = []
capacity = 1
obs = []

DEFINE produce(item)
    EXC_ACC
        WHILE LEN(buffer) >= capacity
            WAIT()
        ENDWHILE
        buffer = APPEND(buffer, item)
        NOTIFY()
    END_EXC_ACC
ENDDEF

DEFINE producer(base)
    FOR i = 1 TO 2
        produce(base + i)
    ENDFOR
ENDDEF

DEFINE consumer()
    FOR i = 1 TO 4
        EXC_ACC
            WHILE LEN(buffer) == 0
                WAIT()
            ENDWHILE
            item = buffer[0]
            buffer = TAIL(buffer)
            NOTIFY()
        END_EXC_ACC
        obs = APPEND(obs, item)
    ENDFOR
ENDDEF

PARA
    producer(10)
    producer(20)
    consumer()
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// Readers–writers: two readers record the version they saw, one
/// writer bumps it. Reading and recording are *separate* critical
/// sections — exactly like the runtime implementations, which log the
/// read outside the read lock — so "1 0" (later reader saw the old
/// version but logged first) is a legal output.
pub const READERS_WRITERS: &str = r#"
version = 0
obs = []

DEFINE reader()
    EXC_ACC
        seen = version
    END_EXC_ACC
    EXC_ACC
        obs = APPEND(obs, seen)
    END_EXC_ACC
ENDDEF

DEFINE writer()
    EXC_ACC
        version = version + 1
    END_EXC_ACC
ENDDEF

PARA
    reader()
    reader()
    writer()
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// Sleeping barber: one barber, one waiting chair, two customers.
/// Tokens: `10 + id` when a customer's cut finishes, `20 + id` when a
/// customer is turned away. `handled` counts both outcomes so the
/// barber knows when to close shop.
pub const SLEEPING_BARBER: &str = r#"
waiting = []
done = [FALSE, FALSE]
handled = 0
obs = []

DEFINE barber()
    WHILE handled < 2
        EXC_ACC
            WHILE LEN(waiting) == 0 AND handled < 2
                WAIT()
            ENDWHILE
            IF LEN(waiting) > 0 THEN
                c = waiting[0]
                waiting = TAIL(waiting)
                handled = handled + 1
                obs = APPEND(obs, 10 + c)
                done[c] = TRUE
                NOTIFY()
            ENDIF
        END_EXC_ACC
    ENDWHILE
ENDDEF

DEFINE customer(id)
    seated = FALSE
    EXC_ACC
        IF LEN(waiting) < 1 THEN
            waiting = APPEND(waiting, id)
            seated = TRUE
        ELSE
            handled = handled + 1
            obs = APPEND(obs, 20 + id)
        ENDIF
        NOTIFY()
    END_EXC_ACC
    IF seated THEN
        EXC_ACC
            WHILE done[id] == FALSE
                WAIT()
            ENDWHILE
        END_EXC_ACC
    ENDIF
ENDDEF

PARA
    barber()
    customer(0)
    customer(1)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// One-lane bridge, greedy (no fairness batch): two red cars
/// (direction 1) and one blue car (direction 2), one crossing each.
/// Tokens: the direction of each car as it enters the bridge.
pub const BRIDGE: &str = r#"
carsOn = 0
dir = 0
obs = []

DEFINE cross(d)
    EXC_ACC
        WHILE carsOn > 0 AND dir != d
            WAIT()
        ENDWHILE
        dir = d
        carsOn = carsOn + 1
        obs = APPEND(obs, d)
    END_EXC_ACC
    EXC_ACC
        carsOn = carsOn - 1
        NOTIFY()
    END_EXC_ACC
ENDDEF

PARA
    cross(1)
    cross(1)
    cross(2)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// Party matching: two boys, two girls; the second guest of a pair to
/// arrive claims the longest-waiting guest of the other sex (FIFO).
/// Tokens: `(boy + 1) * 10 + girl + 1` at the moment a pair leaves.
pub const PARTY_MATCHING: &str = r#"
waitB = []
waitG = []
leftB = [FALSE, FALSE]
leftG = [FALSE, FALSE]
obs = []

DEFINE boy(id)
    EXC_ACC
        IF LEN(waitG) > 0 THEN
            g = waitG[0]
            waitG = TAIL(waitG)
            leftG[g] = TRUE
            leftB[id] = TRUE
            obs = APPEND(obs, (id + 1) * 10 + g + 1)
            NOTIFY()
        ELSE
            waitB = APPEND(waitB, id)
        ENDIF
    END_EXC_ACC
    EXC_ACC
        WHILE leftB[id] == FALSE
            WAIT()
        ENDWHILE
    END_EXC_ACC
ENDDEF

DEFINE girl(id)
    EXC_ACC
        IF LEN(waitB) > 0 THEN
            b = waitB[0]
            waitB = TAIL(waitB)
            leftB[b] = TRUE
            leftG[id] = TRUE
            obs = APPEND(obs, (b + 1) * 10 + id + 1)
            NOTIFY()
        ELSE
            waitG = APPEND(waitG, id)
        ENDIF
    END_EXC_ACC
    EXC_ACC
        WHILE leftG[id] == FALSE
            WAIT()
        ENDWHILE
    END_EXC_ACC
ENDDEF

PARA
    boy(0)
    boy(1)
    girl(0)
    girl(1)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// Book inventory, one title: stock starts at 1, each client restocks
/// one copy then orders one copy. Tokens: client id at the moment its
/// order is filled. Stock can never go negative and no run starves.
pub const BOOK_INVENTORY: &str = r#"
stock = 1
obs = []

DEFINE client(id)
    EXC_ACC
        stock = stock + 1
        NOTIFY()
    END_EXC_ACC
    EXC_ACC
        WHILE stock == 0
            WAIT()
        ENDWHILE
        stock = stock - 1
        obs = APPEND(obs, id)
    END_EXC_ACC
ENDDEF

PARA
    client(1)
    client(2)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// Sum with workers: two workers add their share (5 twice, 10 twice)
/// under mutual exclusion. A single deterministic output — the point
/// of the exercise is that *every* interleaving prints 30.
pub const SUM_WORKERS: &str = r#"
sum = 0

DEFINE worker(k)
    FOR i = 1 TO 2
        EXC_ACC
            sum = sum + k
        END_EXC_ACC
    ENDFOR
ENDDEF

PARA
    worker(5)
    worker(10)
ENDPARA

PRINTLN sum
"#;

/// Thread-pool arithmetic: a queue of three tasks (stored as `x + 1`
/// so the value 0 can mean "queue empty"), two workers, each task
/// evaluated with the same branchy formula as
/// `concur_problems::thread_pool_arith::ArithTask::evaluate`.
/// Tokens: each task's result in completion order, then the total.
pub const THREAD_POOL: &str = r#"
queue = [1, 2, 3]
total = 0
obs = []

DEFINE evaluate(x)
    acc = 0
    FOR k = 1 TO 8
        term = x * k + k * k
        IF term % 3 == 0 THEN
            acc = acc - term
        ELSE
            acc = acc + term
        ENDIF
    ENDFOR
    RETURN acc
ENDDEF

DEFINE worker()
    busy = TRUE
    WHILE busy
        t = 0
        EXC_ACC
            IF LEN(queue) > 0 THEN
                t = queue[0]
                queue = TAIL(queue)
            ENDIF
        END_EXC_ACC
        IF t == 0 THEN
            busy = FALSE
        ELSE
            r = evaluate(t - 1)
            EXC_ACC
                total = total + r
                obs = APPEND(obs, r)
            END_EXC_ACC
        ENDIF
    ENDWHILE
ENDDEF

PARA
    worker()
    worker()
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
PRINTLN total
"#;

// --- task-discipline (AWAIT) renditions -------------------------------------
//
// The `TASKS_*` models re-express a representative subset of the
// problems in the await-point style of `concur-tasks`: instead of
// WAIT/NOTIFY inside a critical section, a task `AWAIT`s a call-free
// condition *outside* any `EXC_ACC` and then atomically re-checks it
// before acting (the condition may have been falsified between the
// await firing and the task being scheduled — exactly the recheck a
// real async runtime needs after `wait_until` resumes). Each model is
// pinned below to the same output set (and deadlock verdict) as its
// monitor-style counterpart, which is what makes AWAIT a fourth
// equivalent phrasing rather than a new semantics.

/// [`DINING_ORDERED`] in the await discipline. Forks are claimed by
/// awaiting `forks[i] == FALSE` and re-checking under the lock.
pub const TASKS_DINING_ORDERED: &str = r#"
forks = [FALSE, FALSE]
obs = []

DEFINE take(i)
    got = FALSE
    WHILE got == FALSE
        AWAIT forks[i] == FALSE
        EXC_ACC
            IF forks[i] == FALSE THEN
                forks[i] = TRUE
                got = TRUE
            ENDIF
        END_EXC_ACC
    ENDWHILE
ENDDEF

DEFINE put(i)
    EXC_ACC
        forks[i] = FALSE
    END_EXC_ACC
ENDDEF

DEFINE philosopher(id, first, second)
    take(first)
    take(second)
    EXC_ACC
        obs = APPEND(obs, id)
    END_EXC_ACC
    put(second)
    put(first)
ENDDEF

PARA
    philosopher(1, 0, 1)
    philosopher(2, 0, 1)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// [`DINING_NAIVE`] in the await discipline: crossed fork orders make
/// the circular wait reachable as two tasks parked on each other's
/// fork conditions — the explorer must classify that as a deadlock
/// (no enabled await), matching the WAIT-based model.
pub const TASKS_DINING_NAIVE: &str = r#"
forks = [FALSE, FALSE]
obs = []

DEFINE take(i)
    got = FALSE
    WHILE got == FALSE
        AWAIT forks[i] == FALSE
        EXC_ACC
            IF forks[i] == FALSE THEN
                forks[i] = TRUE
                got = TRUE
            ENDIF
        END_EXC_ACC
    ENDWHILE
ENDDEF

DEFINE put(i)
    EXC_ACC
        forks[i] = FALSE
    END_EXC_ACC
ENDDEF

DEFINE philosopher(id, first, second)
    take(first)
    take(second)
    EXC_ACC
        obs = APPEND(obs, id)
    END_EXC_ACC
    put(second)
    put(first)
ENDDEF

PARA
    philosopher(1, 0, 1)
    philosopher(2, 1, 0)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// [`BOUNDED_BUFFER`] in the await discipline. AWAIT conditions must
/// be call-free, so the buffer occupancy lives in a scalar `count`
/// mirrored alongside the list.
pub const TASKS_BOUNDED_BUFFER: &str = r#"
buffer = []
count = 0
capacity = 1
obs = []

DEFINE produce(item)
    sent = FALSE
    WHILE sent == FALSE
        AWAIT count < capacity
        EXC_ACC
            IF count < capacity THEN
                buffer = APPEND(buffer, item)
                count = count + 1
                sent = TRUE
            ENDIF
        END_EXC_ACC
    ENDWHILE
ENDDEF

DEFINE producer(base)
    FOR i = 1 TO 2
        produce(base + i)
    ENDFOR
ENDDEF

DEFINE consumer()
    FOR i = 1 TO 4
        item = 0
        got = FALSE
        WHILE got == FALSE
            AWAIT count > 0
            EXC_ACC
                IF count > 0 THEN
                    item = buffer[0]
                    buffer = TAIL(buffer)
                    count = count - 1
                    got = TRUE
                ENDIF
            END_EXC_ACC
        ENDWHILE
        obs = APPEND(obs, item)
    ENDFOR
ENDDEF

PARA
    producer(10)
    producer(20)
    consumer()
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// [`BRIDGE`] in the await discipline: a car awaits the bridge being
/// free or flowing its way, then re-checks atomically on entry.
pub const TASKS_BRIDGE: &str = r#"
carsOn = 0
dir = 0
obs = []

DEFINE cross(d)
    entered = FALSE
    WHILE entered == FALSE
        AWAIT carsOn == 0 OR dir == d
        EXC_ACC
            IF carsOn == 0 OR dir == d THEN
                dir = d
                carsOn = carsOn + 1
                obs = APPEND(obs, d)
                entered = TRUE
            ENDIF
        END_EXC_ACC
    ENDWHILE
    EXC_ACC
        carsOn = carsOn - 1
    END_EXC_ACC
ENDDEF

PARA
    cross(1)
    cross(1)
    cross(2)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

/// [`BOOK_INVENTORY`] in the await discipline: restock atomically,
/// then await stock and re-check before taking a copy.
pub const TASKS_BOOK_INVENTORY: &str = r#"
stock = 1
obs = []

DEFINE client(id)
    EXC_ACC
        stock = stock + 1
    END_EXC_ACC
    bought = FALSE
    WHILE bought == FALSE
        AWAIT stock > 0
        EXC_ACC
            IF stock > 0 THEN
                stock = stock - 1
                obs = APPEND(obs, id)
                bought = TRUE
            ENDIF
        END_EXC_ACC
    ENDWHILE
ENDDEF

PARA
    client(1)
    client(2)
ENDPARA

FOR i = 1 TO LEN(obs)
    PRINTLN obs[i - 1]
ENDFOR
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn outputs(src: &str) -> (BTreeSet<String>, bool) {
        let set = explore_model(src).expect("model explores exhaustively");
        (set.output_set(), set.has_deadlock())
    }

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn dining_ordered_outputs() {
        let (out, deadlock) = outputs(DINING_ORDERED);
        assert_eq!(out, set(&["1 2", "2 1"]));
        assert!(!deadlock);
    }

    #[test]
    fn dining_naive_deadlocks() {
        let (out, deadlock) = outputs(DINING_NAIVE);
        assert_eq!(out, set(&["1 2", "2 1"]));
        assert!(deadlock);
    }

    #[test]
    fn bounded_buffer_outputs_are_the_six_merges() {
        let (out, deadlock) = outputs(BOUNDED_BUFFER);
        assert_eq!(
            out,
            set(&[
                "11 12 21 22",
                "11 21 12 22",
                "11 21 22 12",
                "21 11 12 22",
                "21 11 22 12",
                "21 22 11 12",
            ])
        );
        assert!(!deadlock);
    }

    #[test]
    fn readers_writers_outputs() {
        let (out, deadlock) = outputs(READERS_WRITERS);
        assert_eq!(out, set(&["0 0", "0 1", "1 0", "1 1"]));
        assert!(!deadlock);
    }

    #[test]
    fn sleeping_barber_outputs() {
        let (out, deadlock) = outputs(SLEEPING_BARBER);
        assert_eq!(out, set(&["10 11", "11 10", "20 11", "21 10"]));
        assert!(!deadlock);
    }

    #[test]
    fn bridge_outputs_are_all_entry_orders() {
        let (out, deadlock) = outputs(BRIDGE);
        assert_eq!(out, set(&["1 1 2", "1 2 1", "2 1 1"]));
        assert!(!deadlock);
    }

    #[test]
    fn party_matching_outputs_are_both_matchings_in_both_orders() {
        let (out, deadlock) = outputs(PARTY_MATCHING);
        assert_eq!(out, set(&["11 22", "22 11", "12 21", "21 12"]));
        assert!(!deadlock);
    }

    #[test]
    fn book_inventory_outputs() {
        let (out, deadlock) = outputs(BOOK_INVENTORY);
        assert_eq!(out, set(&["1 2", "2 1"]));
        assert!(!deadlock);
    }

    #[test]
    fn sum_workers_is_deterministic() {
        let (out, deadlock) = outputs(SUM_WORKERS);
        assert_eq!(out, set(&["30"]));
        assert!(!deadlock);
    }

    #[test]
    fn await_rendition_agrees_with_its_monitor_counterpart() {
        // The same problem phrased with AWAIT + atomic recheck must
        // reach exactly the monitor model's terminal set — including
        // the deadlock verdict. This is the model-level half of the
        // "fourth paradigm is equivalent" claim.
        for (name, tasks_src, base_src) in [
            ("dining_ordered", TASKS_DINING_ORDERED, DINING_ORDERED),
            ("dining_naive", TASKS_DINING_NAIVE, DINING_NAIVE),
            ("bounded_buffer", TASKS_BOUNDED_BUFFER, BOUNDED_BUFFER),
            ("bridge", TASKS_BRIDGE, BRIDGE),
            ("book_inventory", TASKS_BOOK_INVENTORY, BOOK_INVENTORY),
        ] {
            let (tasks_out, tasks_deadlock) = outputs(tasks_src);
            let (base_out, base_deadlock) = outputs(base_src);
            assert_eq!(tasks_out, base_out, "{name}: AWAIT model output set differs");
            assert_eq!(tasks_deadlock, base_deadlock, "{name}: AWAIT model deadlock differs");
        }
    }

    #[test]
    fn await_naive_dining_deadlock_is_reachable() {
        let (_, deadlock) = outputs(TASKS_DINING_NAIVE);
        assert!(deadlock, "crossed awaits must deadlock somewhere in the state graph");
    }

    #[test]
    fn thread_pool_outputs() {
        let (out, deadlock) = outputs(THREAD_POOL);
        assert_eq!(
            out,
            set(&["114 -84 -30 0", "114 -30 -84 0", "-84 114 -30 0", "-84 -30 114 0",])
        );
        assert!(!deadlock);
    }
}
