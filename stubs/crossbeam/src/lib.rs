//! Offline stand-in for the `crossbeam::thread` API.
//!
//! Since Rust 1.63 the standard library ships scoped threads, so this crate
//! is a thin adapter exposing the `crossbeam::thread::scope(|s| ...)`
//! calling convention (spawned closures receive a `&Scope` argument, `scope`
//! returns a `Result`) on top of [`std::thread::scope`].

#![forbid(unsafe_code)]

/// Scoped threads.
pub mod thread {
    use std::any::Any;

    /// Error type carried by a failed scope or join (the panic payload).
    pub type PanicPayload = Box<dyn Any + Send + 'static>;

    /// A scope handle through which threads are spawned.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives a scope handle so it
        /// can spawn further threads, matching the crossbeam signature.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Handle to a spawned scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread to finish, returning its result or the panic
        /// payload.
        pub fn join(self) -> Result<T, PanicPayload> {
            self.inner.join()
        }
    }

    /// Creates a scope for spawning threads that may borrow from the caller's
    /// stack. All spawned threads are joined before `scope` returns.
    ///
    /// Unlike crossbeam, a panicking child propagates through
    /// [`std::thread::scope`] when its handle was not explicitly joined, so
    /// the `Err` arm is reserved for payloads of explicitly joined threads —
    /// callers that `.expect()` the result behave identically either way.
    pub fn scope<'env, F, R>(f: F) -> Result<R, PanicPayload>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use super::thread;

    #[test]
    fn scope_joins_and_returns() {
        let data = [1u64, 2, 3, 4];
        let total = thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| s.spawn(move |_| chunk.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn nested_spawn_through_scope_arg() {
        let r = thread::scope(|s| {
            s.spawn(|inner| inner.spawn(|_| 21).join().unwrap() * 2)
                .join()
                .unwrap()
        })
        .unwrap();
        assert_eq!(r, 42);
    }
}
