//! Sharing regression: deploying a campaign must pass its rule bodies
//! along, not rebuild them.
//!
//! A counting `#[global_allocator]` watches the deploy path the benchmark
//! times — `CompiledNes::compile(nes.clone())` + `NesDataPlane::new` — on
//! the fat-tree(4) × 4-update campaign. A deep-copied `Rule` is three
//! B-tree node allocations (`Match` map, `ActionSet` set, `Action` map), so
//! a deploy that copies even one body of every installed rule allocates
//! more than once per rule (the pre-sharing path copied each rule three
//! times: about nine). With shared bodies what remains is per *table* — a
//! rule vector per configuration and switch, the index's segment list,
//! signature, fingerprint map and prefetch — about six allocations for a
//! 14-rule table here, which is why the bound is one per rule and not
//! lower. The count is per thread and repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edn_scenario::{parse, CompiledScenario};
use nes_runtime::{CompiledNes, NesDataPlane};

thread_local! {
    /// Allocations made by this thread (no destructor, so the allocator may
    /// touch it at any point of the thread's life).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds (`try_with` on a `const`, `Drop`-less
// cell).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The benchmark's `--smoke` campaign shape: fat-tree(4), four probed
/// unblock steps.
fn campaign() -> CompiledScenario {
    let spec = parse(
        "[scenario]\n\
         name = \"alloc-fat-tree\"\n\
         seed = 2016\n\
         topology = \"fat_tree\"\n\
         size = 4\n\
         [workload]\n\
         pattern = \"permutation\"\n\
         packets_per_flow = 3\n\
         [campaign]\n\
         updates = 4\n",
    )
    .expect("pinned spec parses");
    CompiledScenario::compile(&spec).expect("pinned spec compiles")
}

#[test]
fn deploying_a_campaign_does_not_copy_rule_bodies() {
    let c = campaign();
    let switches = c.run.sim().switches().to_vec();
    let deploy = || {
        let before = allocations();
        let compiled = CompiledNes::compile(c.nes.clone());
        let forwarding = compiled.rule_breakdown().forwarding as u64;
        let plane = NesDataPlane::new(compiled, switches.clone(), false);
        let spent = allocations() - before;
        drop(plane);
        (spent, forwarding)
    };
    let (spent, forwarding) = deploy();
    assert_eq!(deploy().0, spent, "the allocation count repeats exactly");
    assert!(forwarding >= 1000, "the campaign installs a real rule load ({forwarding})");
    assert!(
        spent < forwarding,
        "deploying {forwarding} installed rules took {spent} allocations — \
         rule bodies are being copied again"
    );
}
