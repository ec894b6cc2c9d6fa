//! The standard name-mapping procedure (paper §5.4).
//!
//! > "Names are ordinarily interpreted left-to-right ... As each component
//! > of the name is parsed, it is looked up in the current context. If the
//! > name specifies a context, the variable CurrentContext is updated. If
//! > the new context is implemented by some other server, the name index
//! > field in the request message is updated to point to the first character
//! > of the name not yet parsed, the context id field is set to the value of
//! > CurrentContext, and the request is forwarded to the server that
//! > implements the context."
//!
//! [`resolve`] is that algorithm, generic over a server's
//! [`ComponentSpace`]. Servers with non-hierarchical or foreign syntax (the
//! prefix server's `[p]`, the mail server's `user@host`) simply do not use
//! it — the protocol imposes no interpretation (paper §5.4's first clause).

// Servers resolve names here: a bad name gets a reply code, not a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fmt;
use vproto::{ContextId, ContextPair, ReplyCode};

/// Result of looking up a single name component in a context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<O> {
    /// The component names a non-context object on this server.
    Object(O),
    /// The component names a context on this server.
    Context(ContextId),
    /// The component names a context implemented by another server — the
    /// "curved arrow" of the paper's Figure 4.
    Remote(ContextPair),
    /// No binding for the component in the context.
    NotFound,
}

/// What a fully interpreted name denotes on this server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedTarget<O> {
    /// A leaf object.
    Object(O),
    /// A context (the name ended at a directory, or was empty).
    Context(ContextId),
}

/// Outcome of running the mapping procedure on one server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<O> {
    /// The name resolved entirely within this server.
    Done {
        /// The object or context the name denotes.
        target: ResolvedTarget<O>,
        /// The context in which the final component was interpreted.
        parent: ContextId,
        /// Byte index of the final component within the name.
        final_index: usize,
    },
    /// Interpretation must continue at another server: forward the request
    /// with the context-id field set to `target.context` and the name-index
    /// field set to `index`.
    Forward {
        /// Where interpretation continues.
        target: ContextPair,
        /// First byte of the name not yet parsed.
        index: usize,
    },
    /// Interpretation failed.
    Fail(FailReason),
}

/// Why interpretation failed, with the index at which it did — the paper's
/// §7 notes how hard good error reporting is once names forward between
/// servers; carrying the failure index is this reproduction's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailReason {
    /// Protocol-level reply code ([`ReplyCode::NotFound`],
    /// [`ReplyCode::NotAContext`], or [`ReplyCode::InvalidContext`]).
    pub code: ReplyCode,
    /// Byte index of the offending component.
    pub index: usize,
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.code, self.index)
    }
}

/// A server's name space, viewed one component at a time.
///
/// Implementors only answer "what does `comp` mean in `ctx`" — the shared
/// [`resolve`] procedure supplies the component scanning, `CurrentContext`
/// threading, and forwarding decisions of paper §5.4.
pub trait ComponentSpace {
    /// Server-local handle for a resolved leaf object.
    type Object;

    /// Looks up one component in a context.
    fn step(&self, ctx: ContextId, component: &[u8]) -> Step<Self::Object>;

    /// Whether `ctx` names a live context on this server. Requests carrying
    /// stale ids (e.g. after a server restart) fail with
    /// [`ReplyCode::InvalidContext`] (paper §5.2).
    fn valid_context(&self, ctx: ContextId) -> bool;
}

/// Runs the name-mapping procedure of paper §5.4 over `space`.
///
/// * `name` — the full CSname bytes from the request payload.
/// * `start` — the request's name-index field: where interpretation begins
///   or continues after a forward.
/// * `ctx` — the request's context-id field.
/// * `separator` — this server's component separator (e.g. `/` for file
///   servers). Runs of separators are treated as one; a trailing separator
///   makes the name denote the context itself.
///
/// Empty names (or `start` past the end) denote the starting context, which
/// is how a forwarded `[prefix]` with nothing after it opens the target
/// context.
pub fn resolve<S: ComponentSpace>(
    space: &S,
    name: &[u8],
    start: usize,
    ctx: ContextId,
    separator: u8,
) -> Outcome<S::Object> {
    if !space.valid_context(ctx) {
        return Outcome::Fail(FailReason {
            code: ReplyCode::InvalidContext,
            index: start.min(name.len()),
        });
    }
    let mut current = ctx;
    let mut i = start.min(name.len());

    loop {
        // Skip separator runs.
        while i < name.len() && name[i] == separator {
            i += 1;
        }
        if i >= name.len() {
            return Outcome::Done {
                target: ResolvedTarget::Context(current),
                parent: current,
                final_index: i,
            };
        }
        let comp_start = i;
        while i < name.len() && name[i] != separator {
            i += 1;
        }
        let component = &name[comp_start..i];
        let at_end = {
            // Only separators may remain for this component to be final.
            name[i..].iter().all(|&b| b == separator)
        };
        match space.step(current, component) {
            Step::Object(obj) => {
                if at_end {
                    return Outcome::Done {
                        target: ResolvedTarget::Object(obj),
                        parent: current,
                        final_index: comp_start,
                    };
                }
                return Outcome::Fail(FailReason {
                    code: ReplyCode::NotAContext,
                    index: comp_start,
                });
            }
            Step::Context(next) => {
                if at_end {
                    // `parent` is the context the final component was
                    // interpreted in — needed by remove/rename.
                    return Outcome::Done {
                        target: ResolvedTarget::Context(next),
                        parent: current,
                        final_index: comp_start,
                    };
                }
                current = next;
            }
            Step::Remote(pair) => {
                // Skip the separator so the next server starts at its first
                // own component.
                let mut next_i = i;
                while next_i < name.len() && name[next_i] == separator {
                    next_i += 1;
                }
                return Outcome::Forward {
                    target: pair,
                    index: next_i,
                };
            }
            Step::NotFound => {
                return Outcome::Fail(FailReason {
                    code: ReplyCode::NotFound,
                    index: comp_start,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vproto::{LogicalHost, Pid};

    /// ctx 0: {a -> ctx 1, obj -> object "O", link -> remote}
    /// ctx 1: {b -> ctx 2, x -> object "X"}
    /// ctx 2: {}
    struct Space;

    const REMOTE: ContextPair =
        ContextPair::new(Pid::new(LogicalHost::new(9), 9), ContextId::new(0x900));

    impl ComponentSpace for Space {
        type Object = &'static str;

        fn step(&self, ctx: ContextId, comp: &[u8]) -> Step<&'static str> {
            match (ctx.raw(), comp) {
                (0, b"a") => Step::Context(ContextId::new(1)),
                (0, b"obj") => Step::Object("O"),
                (0, b"link") => Step::Remote(REMOTE),
                (1, b"b") => Step::Context(ContextId::new(2)),
                (1, b"x") => Step::Object("X"),
                _ => Step::NotFound,
            }
        }

        fn valid_context(&self, ctx: ContextId) -> bool {
            ctx.raw() <= 2
        }
    }

    fn run(name: &str, start: usize, ctx: u32) -> Outcome<&'static str> {
        resolve(&Space, name.as_bytes(), start, ContextId::new(ctx), b'/')
    }

    #[test]
    fn resolves_nested_object() {
        match run("a/x", 0, 0) {
            Outcome::Done {
                target: ResolvedTarget::Object("X"),
                parent,
                final_index,
            } => {
                assert_eq!(parent, ContextId::new(1));
                assert_eq!(final_index, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resolves_context_name() {
        match run("a/b", 0, 0) {
            Outcome::Done {
                target: ResolvedTarget::Context(c),
                ..
            } => assert_eq!(c, ContextId::new(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_name_denotes_starting_context() {
        match run("", 0, 1) {
            Outcome::Done {
                target: ResolvedTarget::Context(c),
                ..
            } => assert_eq!(c, ContextId::new(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_separator_denotes_context() {
        match run("a/", 0, 0) {
            Outcome::Done {
                target: ResolvedTarget::Context(c),
                ..
            } => assert_eq!(c, ContextId::new(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn separator_runs_collapse() {
        match run("a//x", 0, 0) {
            Outcome::Done {
                target: ResolvedTarget::Object("X"),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn name_index_continues_partial_interpretation() {
        // As if a previous server had already consumed "ignored/" (8 bytes).
        match run("ignored/a/x", 8, 0) {
            Outcome::Done {
                target: ResolvedTarget::Object("X"),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crossing_to_remote_forwards_with_updated_index() {
        match run("link/rest/of/name", 0, 0) {
            Outcome::Forward { target, index } => {
                assert_eq!(target, REMOTE);
                assert_eq!(index, 5);
                assert_eq!(&b"link/rest/of/name"[index..], b"rest/of/name");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn remote_link_as_final_component_forwards_with_empty_rest() {
        match run("link", 0, 0) {
            Outcome::Forward { target, index } => {
                assert_eq!(target, REMOTE);
                assert_eq!(index, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_component_fails_with_index() {
        match run("a/nope/x", 0, 0) {
            Outcome::Fail(FailReason { code, index }) => {
                assert_eq!(code, ReplyCode::NotFound);
                assert_eq!(index, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn object_in_middle_is_not_a_context() {
        match run("obj/deeper", 0, 0) {
            Outcome::Fail(FailReason { code, index }) => {
                assert_eq!(code, ReplyCode::NotAContext);
                assert_eq!(index, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_context_id_rejected() {
        match run("a/x", 0, 77) {
            Outcome::Fail(FailReason { code, .. }) => {
                assert_eq!(code, ReplyCode::InvalidContext);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn start_past_end_is_context() {
        match run("abc", 99, 0) {
            Outcome::Done {
                target: ResolvedTarget::Context(c),
                ..
            } => assert_eq!(c, ContextId::new(0)),
            other => panic!("{other:?}"),
        }
    }
}
