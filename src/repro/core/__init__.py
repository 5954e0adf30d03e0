"""COMB core: the paper's benchmark suite (polling + post-work-wait)."""

from .executor import (
    CacheStats,
    DEFAULT_CACHE_DIR,
    PointCache,
    PointTask,
    SweepExecutor,
    current_executor,
    default_executor,
    run_task,
    task_key,
    use_executor,
)
from .polling import COMB_TAG, PollingConfig, drive_polling, run_polling
from .pww import PwwBatch, PwwConfig, run_pww
from .results import PollingPoint, PwwPoint, Series
from .suite import (
    CombSuite,
    OffloadVerdict,
    PAPER_SIZES,
    POLL_GRID,
    WORK_GRID,
)
from .sweep import log_intervals, polling_sweep, polling_tasks, pww_sweep, pww_tasks
from .workloop import DRY_RUN_ITERS, dry_run_iter_time, work_time

__all__ = [
    "COMB_TAG",
    "CacheStats",
    "CombSuite",
    "DEFAULT_CACHE_DIR",
    "DRY_RUN_ITERS",
    "OffloadVerdict",
    "PAPER_SIZES",
    "POLL_GRID",
    "PointCache",
    "PointTask",
    "PollingConfig",
    "PollingPoint",
    "PwwBatch",
    "PwwConfig",
    "PwwPoint",
    "Series",
    "SweepExecutor",
    "WORK_GRID",
    "current_executor",
    "default_executor",
    "drive_polling",
    "dry_run_iter_time",
    "log_intervals",
    "polling_sweep",
    "polling_tasks",
    "pww_sweep",
    "pww_tasks",
    "run_polling",
    "run_pww",
    "run_task",
    "task_key",
    "use_executor",
    "work_time",
]
