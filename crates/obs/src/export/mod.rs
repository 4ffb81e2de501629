//! Consumers of the flight recorder and metrics snapshot: chrome-trace
//! (Perfetto) JSON, Prometheus exposition text, and the dump-on-panic
//! hook.

use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::journal::EventJournal;

pub mod perfetto;
pub mod prometheus;

/// How many trailing events the panic hook prints per dump.
const PANIC_REPORT_EVENTS: usize = 64;

/// Journals registered for dump-on-panic. Weak references: a journal
/// that has been dropped is silently skipped, so registration never
/// extends a journal's lifetime.
static REGISTRY: OnceLock<Mutex<Vec<Weak<EventJournal>>>> = OnceLock::new();
/// Whether the chained panic hook has been installed (once per process).
static HOOK_INSTALLED: OnceLock<()> = OnceLock::new();

/// Render the panic-time diagnostic block for every registered, still
/// live journal (empty when none are registered). This is exactly what
/// the installed hook prints to stderr; split out so tests and callers
/// can capture it directly.
pub fn panic_report() -> String {
    let mut out = String::new();
    let Some(registry) = REGISTRY.get() else {
        return out;
    };
    let Ok(guard) = registry.lock() else {
        // A previous panic poisoned the registry lock; losing the dump
        // is better than double-panicking inside the hook.
        return out;
    };
    for weak in guard.iter() {
        if let Some(journal) = weak.upgrade() {
            out.push_str(&journal.diagnostic_report(PANIC_REPORT_EVENTS));
        }
    }
    out
}

/// Register `journal` for dump-on-panic and (once per process) chain a
/// panic hook that drains every registered journal's last
/// `PANIC_REPORT_EVENTS` events to stderr before the previous hook
/// runs its report. An invariant-audit failure therefore ships the
/// lifecycle events that led up to it.
pub fn install_panic_hook(journal: &Arc<EventJournal>) {
    let registry = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
    if let Ok(mut guard) = registry.lock() {
        guard.retain(|w| w.strong_count() > 0);
        guard.push(Arc::downgrade(journal));
    }
    if HOOK_INSTALLED.set(()).is_ok() {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let report = panic_report();
            if !report.is_empty() {
                eprintln!("{report}");
            }
            previous(info);
        }));
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::journal::EventKind;

    #[test]
    fn panic_report_covers_registered_journals_and_skips_dead_ones() {
        let j = Arc::new(EventJournal::with_capacity(16));
        install_panic_hook(&j);
        j.record_at(1, EventKind::RateTransition { from: 1, to: 2 });
        let report = panic_report();
        assert!(report.contains("flight recorder"), "report: {report}");
        assert!(report.contains("RateTransition"), "report: {report}");

        // A dropped journal disappears from subsequent reports.
        let ephemeral = Arc::new(EventJournal::with_capacity(16));
        ephemeral.record_at(9, EventKind::SpineInvalidate { epoch: 99 });
        install_panic_hook(&ephemeral);
        drop(ephemeral);
        let report = panic_report();
        assert!(!report.contains("epoch: 99"), "report: {report}");
    }

    #[test]
    fn hook_survives_an_actual_panic() {
        let j = Arc::new(EventJournal::with_capacity(16));
        install_panic_hook(&j);
        j.record_at(1, EventKind::SpineInvalidate { epoch: 7 });
        let outcome = std::panic::catch_unwind(|| panic!("boom"));
        assert!(outcome.is_err());
    }
}
