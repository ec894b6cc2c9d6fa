//! The time server — the paper's example of a *simple* service (§4.2):
//! "With simple services like time, the client typically translates from
//! service to real server pid on each operation."

use crate::common::{serve, Answer, Call, Handled, Server};
use bytes::Bytes;
use vkernel::{Ipc, IpcError};
use vproto::{fields, Message, ReplyCode, RequestCode, Scope, ServiceId};

/// Configuration for a [`time_server`] process.
#[derive(Debug, Clone, Default)]
pub struct TimeConfig {
    /// Registration scope.
    pub scope: Scope,
}

struct Clock;

impl Server for Clock {
    fn op(&mut self, call: &mut Call) -> Handled {
        if call.msg.request_code() != Some(RequestCode::GetTime) {
            return Err(ReplyCode::UnknownRequest);
        }
        let mut m = Message::ok();
        m.set_word32(fields::W_TIME_LO, call.ctx.now().as_secs() as u32);
        Ok(Answer::Reply(m))
    }
}

/// Runs a time server until the domain shuts down. Replies to `GetTime`
/// with the domain clock (wall or virtual, per the kernel).
pub fn time_server(ctx: &dyn Ipc, config: TimeConfig) {
    ctx.set_pid(ServiceId::TIME_SERVER, config.scope);
    serve(ctx, &mut Clock);
}

/// The client side, exactly as §4.2 describes: a `GetPid` *per call*, then
/// the transaction. No binding is retained, so a restarted time server is
/// picked up transparently.
///
/// # Errors
///
/// [`ReplyCode::NoServer`] (as an [`IpcError`]-free server error is not
/// available here, so `Err(IpcError::NoProcess)`) when no time server is
/// registered; transport failures otherwise.
pub fn get_time(ctx: &dyn Ipc) -> Result<u32, IpcError> {
    let server = ctx
        .get_pid(ServiceId::TIME_SERVER, Scope::Both)
        .ok_or(IpcError::NoProcess)?;
    let reply = ctx.send(
        server,
        Message::request(RequestCode::GetTime),
        Bytes::new(),
        0,
    )?;
    Ok(reply.msg.word32(fields::W_TIME_LO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkernel::Domain;

    #[test]
    fn get_time_rebinds_per_call_across_restarts() {
        let domain = Domain::new();
        let host = domain.add_host();
        let v1 = domain.spawn(host, "time-v1", |ctx| {
            time_server(ctx, TimeConfig::default())
        });
        while domain
            .registry()
            .lookup(ServiceId::TIME_SERVER, Scope::Both, host)
            .is_none()
        {
            std::thread::yield_now();
        }
        let d = domain.clone();
        domain.client(host, move |ctx| {
            get_time(ctx).unwrap();
            // Crash and restart the service; the next call just works
            // because binding happens at time of use (paper §4.2).
            d.kill(v1);
            let _v2 = d.spawn(host, "time-v2", |ctx| {
                time_server(ctx, TimeConfig::default())
            });
            while d
                .registry()
                .lookup(ServiceId::TIME_SERVER, Scope::Both, host)
                .is_none()
            {
                std::thread::yield_now();
            }
            get_time(ctx).unwrap();
        });
    }

    #[test]
    fn no_server_is_a_clean_error() {
        let domain = Domain::new();
        let host = domain.add_host();
        domain.client(host, |ctx| {
            assert_eq!(get_time(ctx), Err(IpcError::NoProcess));
        });
    }
}
