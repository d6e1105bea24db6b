//! Support shared by the integration tests that start a cluster.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

use airchitect_serve::client::RetryClient;
use airchitect_serve::{Cluster, ServeError};

/// A cluster serving on its own thread. A test that fails unwinds
/// through this guard's `Drop`, which shuts the router down and joins the
/// thread, so `Cluster::run` returns and its supervisor reaps the
/// replicas instead of leaving them running with the test's stderr open.
pub struct Running {
    addr: SocketAddr,
    thread: Option<JoinHandle<Result<(), ServeError>>>,
}

impl Running {
    pub fn start(cluster: Cluster) -> Self {
        Self {
            addr: cluster.local_addr(),
            thread: Some(std::thread::spawn(move || cluster.run())),
        }
    }

    /// Shuts the router down over `client`, the test's own connection (so
    /// none sits idle through the drain), and requires a clean exit.
    pub fn shutdown(mut self, client: &mut RetryClient) {
        let shutdown = client.post("/v1/shutdown", "").expect("shutdown");
        assert_eq!(shutdown.status, 200);
        self.thread
            .take()
            .expect("cluster running")
            .join()
            .expect("cluster thread joins")
            .expect("cluster exits cleanly");
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let mut client =
                RetryClient::new(self.addr, Duration::from_secs(10), 4, Duration::from_millis(50));
            let _ = client.post("/v1/shutdown", "");
            let _ = thread.join();
        }
    }
}
