"""Pipelines: the workload fork was invented for, built without fork.

The original Unix paper's killer feature — ``ls | grep | wc`` — is often
cited as the reason fork's split-then-mutate design is convenient: the
shell customises each child between fork and exec.  This module shows the
same composition through the spawn API: each stage's stdio is *declared*
with file actions, every pipe end stays close-on-exec unless a stage's
own dup2 names it, and so no stage ever holds a write end it should not
(the EOF-forever bug fork-based shells must carefully avoid).
"""

from __future__ import annotations

import contextlib
import os
from typing import List, Optional, Sequence, Tuple

from ..errors import SpawnError
from .result import ChildProcess
from .spawn import ProcessBuilder


class Pipeline:
    """``Pipeline([["ls"], ["grep", "x"], ["wc", "-l"]]).run()``.

    Stages are argv lists.  ``run`` spawns every stage left to right,
    wiring stage *i*'s stdout to stage *i+1*'s stdin through pipes, and
    returns the captured output of the last stage with every stage's
    exit code.
    """

    def __init__(self, stages: Sequence[Sequence[str]]):
        if not stages:
            raise SpawnError("a pipeline needs at least one stage")
        for stage in stages:
            if not stage:
                raise SpawnError("empty stage argv")
        self.stages: List[List[str]] = [list(map(os.fspath, s))
                                        for s in stages]

    def run(self, *, stdin_data: Optional[bytes] = None,
            strategy: Optional[str] = None) -> "PipelineResult":
        """Execute the pipeline to completion."""
        children: List[ChildProcess] = []
        # Pipes between stages: pipe[i] connects stage i -> stage i+1.
        links: List[Tuple[int, int]] = [os.pipe()
                                        for _ in range(len(self.stages) - 1)]
        first_stdin: Optional[int] = None
        if stdin_data is not None:
            first_stdin_read, first_stdin_write = os.pipe()
            first_stdin = first_stdin_read
        try:
            for index, argv in enumerate(self.stages):
                builder = ProcessBuilder(*argv)
                if strategy is not None:
                    builder.strategy(strategy)
                # Every link end is close-on-exec: a stage holds only
                # the two its dup2s give it, so each sees EOF in time.
                if index == 0 and first_stdin is not None:
                    builder.stdin_from_fd(first_stdin)
                if index > 0:
                    builder.stdin_from_fd(links[index - 1][0])
                if index < len(self.stages) - 1:
                    builder.stdout_to_fd(links[index][1])
                else:
                    builder.stdout_to_pipe()
                children.append(builder.spawn())
        except BaseException:
            # A stage that cannot launch breaks the pipeline: no stage
            # of it is left running, unreaped, or holding our stdin.
            if stdin_data is not None:
                os.close(first_stdin_write)
            for child in children:
                with contextlib.suppress(OSError, SpawnError):
                    child.kill()
                    child.wait()
            raise
        finally:
            # Parent keeps no link ends: each belongs to exactly the two
            # stages beside it.
            for read_end, write_end in links:
                os.close(read_end)
                os.close(write_end)
            if first_stdin is not None:
                os.close(first_stdin)
        if stdin_data is not None:
            os.write(first_stdin_write, stdin_data)
            os.close(first_stdin_write)
        output = children[-1].io.read_stdout()
        codes = [child.wait() for child in children]
        children[-1].io.close()
        return PipelineResult(codes, output)


class PipelineResult:
    """Exit codes per stage plus the final stage's captured stdout."""

    def __init__(self, returncodes: List[int], stdout: bytes):
        self.returncodes = returncodes
        self.stdout = stdout

    @property
    def ok(self) -> bool:
        """Whether every stage exited zero."""
        return all(code == 0 for code in self.returncodes)

    def __repr__(self):
        return (f"<PipelineResult codes={self.returncodes} "
                f"stdout={len(self.stdout)}B>")
