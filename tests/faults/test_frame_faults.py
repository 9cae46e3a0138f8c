"""Wire-frame damage under a single spawn: truncation, corruption, lost
SCM_RIGHTS grants, a helper shot at the pool's dispatch point.

Every test is one cell of ``fault_table.py`` for its :data:`SINGLE`
unit; ``test_batch_faults.py`` runs the same rows for a batch of 3.
"""

from fault_table import SINGLE, on_a_bare_server, on_a_pool


class TestTruncateFrame:
    def test_forkserver_with_deadline_detects_the_wedge(self):
        # Half a frame leaves the helper blocked mid-read: only the
        # deadline can prove the channel is gone.  Expiry poisons it.
        on_a_bare_server("truncate_frame", SINGLE)

    def test_pool_with_policy_recovers(self):
        # The row's deadline proves the wedge; the pool fails over.
        on_a_pool("truncate_frame", SINGLE)


class TestCorruptFrame:
    def test_forkserver_helper_bails_out_cleanly(self):
        # The helper reads a full-length frame of garbage, refuses to
        # guess at re-synchronisation, and exits; the client sees EOF.
        on_a_bare_server("corrupt_frame", SINGLE)

    def test_pool_fails_over(self):
        on_a_pool("corrupt_frame", SINGLE)


class TestDropFdGrant:
    def test_forkserver_refuses_with_eproto(self):
        # The nfds field lets the helper see the grant went missing and
        # refuse, instead of wiring the child to its own stdio.
        on_a_bare_server("drop_fd_grant", SINGLE)

    def test_pool_with_policy_retries_past_it(self):
        on_a_pool("drop_fd_grant", SINGLE)


class TestKilledHelper:
    # (kill_helper on a bare server and mid-request under the pool:
    # test_kill_helper.py.)
    def test_pool_dispatch_point_is_injectable(self):
        # The helper is shot at dispatch time, before the frame leaves.
        on_a_pool("kill_helper", SINGLE, point=SINGLE.point)
