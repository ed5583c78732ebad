//! The host-speed calibration kernel. It uses no code of the program, so a
//! change to the program cannot move it; the driver times it around every
//! timed step and scales the step's time by it (see README.md).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Mutex;

/// Lookups in the kernel's hash map, in tasks of `TASK` lookups.
const LOOKUPS: u64 = 1_500_000;
const TASK: u64 = 100;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state % 1_000_000
}

/// Fills a 400k-entry hash map, then makes 1.5M random lookups in it: the
/// hashing and cache-missing access the program's interner, fact tables and
/// knowledge base spend their time on. With `threads > 1` the lookups run
/// as small tasks handed to that many worker threads through channels, the
/// way the program's pool hands out per-source work.
pub fn run(threads: usize) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..400_000u64 {
        map.insert(xorshift(&mut state), i);
    }
    let task = |seed: u64| {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..TASK).fold(0u64, |acc, _| {
            acc.wrapping_add(map.get(&xorshift(&mut s)).copied().unwrap_or(1))
        })
    };
    if threads <= 1 {
        black_box((0..LOOKUPS / TASK).map(task).fold(0u64, u64::wrapping_add));
        return;
    }
    let (task_tx, task_rx) = mpsc::channel::<u64>();
    let task_rx = Mutex::new(task_rx);
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (task_rx, done_tx, task) = (&task_rx, done_tx.clone(), &task);
            s.spawn(move || loop {
                let next = task_rx.lock().expect("no worker panics").recv();
                match next {
                    Ok(seed) => done_tx
                        .send(task(seed))
                        .expect("collector outlives workers"),
                    Err(_) => break,
                }
            });
        }
        drop(done_tx);
        for seed in 0..LOOKUPS / TASK {
            task_tx.send(seed).expect("workers outlive the feed");
        }
        drop(task_tx);
        black_box(done_rx.iter().fold(0u64, u64::wrapping_add));
    });
}
