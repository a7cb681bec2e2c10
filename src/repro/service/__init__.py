"""Deployment substrate: streaming detection and campaign alerting.

The paper's release intent (§3, §9.2 'Online Platforms') is that platforms
deploy the classifiers for content moderation.  This package provides the
service shell a platform would run: a message-stream replay
(:mod:`stream`), and an online monitor (:mod:`monitor`) that scores
messages as they arrive, links detections to targets, and raises campaign
alerts when coordinated activity against one target crosses a window
threshold.
"""

from repro.service.stream import MessageStream, StreamMessage
from repro.service.monitor import (
    Alert,
    AlertKind,
    HarassmentMonitor,
    MonitorConfig,
    MonitorStats,
)

__all__ = [
    "MessageStream",
    "StreamMessage",
    "Alert",
    "AlertKind",
    "HarassmentMonitor",
    "MonitorConfig",
    "MonitorStats",
]
