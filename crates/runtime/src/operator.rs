//! The operator abstraction: per-subtask record processing logic.

/// Collects the records an operator emits; the runtime drains it into the
/// downstream router after every call.
#[derive(Debug)]
pub struct Collector<O> {
    buf: Vec<O>,
}

impl<O> Default for Collector<O> {
    fn default() -> Self {
        Collector::new()
    }
}

impl<O> Collector<O> {
    /// An empty collector. Public so operators can be driven directly in
    /// tests; inside a dataflow the runtime owns the collector.
    pub fn new() -> Self {
        Collector { buf: Vec::new() }
    }

    /// Emits one record downstream.
    #[inline]
    pub fn emit(&mut self, record: O) {
        self.buf.push(record);
    }

    /// Emits every record of an iterator.
    #[inline]
    pub fn emit_all(&mut self, records: impl IntoIterator<Item = O>) {
        self.buf.extend(records);
    }

    /// Takes the emitted records. The runtime drains after every call; a
    /// test that drives an operator directly reads its output here.
    pub fn drain(&mut self) -> std::vec::Drain<'_, O> {
        self.buf.drain(..)
    }
}

/// A streaming operator: one instance runs per parallel subtask and owns its
/// local state (mirroring a Flink keyed/operator state scope).
pub trait Operator<I, O>: Send {
    /// Processes one input record; emits any number of outputs.
    fn process(&mut self, input: I, out: &mut Collector<O>);

    /// Processes one micro-batch of input records — the entry point the
    /// vectorized runtime actually calls. Defaults to unrolling into
    /// [`Operator::process`], so operators are batching-agnostic unless
    /// they override this to amortize per-batch work (scratch reuse, one
    /// lock hold per batch, …). Overrides must preserve record order.
    fn process_batch(&mut self, batch: Vec<I>, out: &mut Collector<O>) {
        for input in batch {
            self.process(input, out);
        }
    }

    /// Called once when the input stream is exhausted; flush any state.
    fn finish(&mut self, _out: &mut Collector<O>) {}
}

/// A stateless 1→1 operator from a closure.
pub fn map_fn<I, O, F>(f: F) -> impl Operator<I, O>
where
    F: FnMut(I) -> O + Send,
{
    struct MapOp<F>(F);
    impl<I, O, F> Operator<I, O> for MapOp<F>
    where
        F: FnMut(I) -> O + Send,
    {
        fn process(&mut self, input: I, out: &mut Collector<O>) {
            out.emit((self.0)(input));
        }
    }
    MapOp(f)
}

/// A stateless 1→n operator from a closure returning an iterator.
pub fn flat_map_fn<I, O, It, F>(f: F) -> impl Operator<I, O>
where
    It: IntoIterator<Item = O>,
    F: FnMut(I) -> It + Send,
{
    struct FlatMapOp<F>(F);
    impl<I, O, It, F> Operator<I, O> for FlatMapOp<F>
    where
        It: IntoIterator<Item = O>,
        F: FnMut(I) -> It + Send,
    {
        fn process(&mut self, input: I, out: &mut Collector<O>) {
            out.emit_all((self.0)(input));
        }
    }
    FlatMapOp(f)
}

/// A stateless filter operator from a predicate.
pub fn filter_fn<I, F>(f: F) -> impl Operator<I, I>
where
    F: FnMut(&I) -> bool + Send,
{
    struct FilterOp<F>(F);
    impl<I, F> Operator<I, I> for FilterOp<F>
    where
        F: FnMut(&I) -> bool + Send,
    {
        fn process(&mut self, input: I, out: &mut Collector<I>) {
            if (self.0)(&input) {
                out.emit(input);
            }
        }
    }
    FilterOp(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_emit_and_drain() {
        let mut c = Collector::new();
        c.emit(1);
        c.emit_all([2, 3]);
        let drained: Vec<i32> = c.drain().collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert_eq!(c.drain().count(), 0);
    }

    #[test]
    fn map_fn_transforms() {
        let mut op = map_fn(|x: i32| x * 2);
        let mut c = Collector::new();
        op.process(21, &mut c);
        assert_eq!(c.drain().collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn flat_map_fn_expands() {
        let mut op = flat_map_fn(|x: i32| vec![x; x as usize]);
        let mut c = Collector::new();
        op.process(3, &mut c);
        assert_eq!(c.drain().collect::<Vec<_>>(), vec![3, 3, 3]);
        op.process(0, &mut c);
        assert_eq!(c.drain().count(), 0);
    }

    #[test]
    fn filter_fn_drops() {
        let mut op = filter_fn(|x: &i32| x % 2 == 0);
        let mut c = Collector::new();
        op.process(1, &mut c);
        op.process(2, &mut c);
        op.process(3, &mut c);
        op.process(4, &mut c);
        assert_eq!(c.drain().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn stateful_operator_keeps_state_across_calls() {
        struct Sum(i64);
        impl Operator<i64, i64> for Sum {
            fn process(&mut self, input: i64, _out: &mut Collector<i64>) {
                self.0 += input;
            }
            fn finish(&mut self, out: &mut Collector<i64>) {
                out.emit(self.0);
            }
        }
        let mut op = Sum(0);
        let mut c = Collector::new();
        for i in 1..=10 {
            op.process(i, &mut c);
        }
        assert_eq!(c.drain().count(), 0);
        op.finish(&mut c);
        assert_eq!(c.drain().collect::<Vec<_>>(), vec![55]);
    }
}
