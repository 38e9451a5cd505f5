"""Web-browsing workload: pages of objects separated by think times.

Models the paper's dynamic workload (Section 6.3.4): page structure follows
the measurement literature it cites -- tens of objects per page with
heavy-tailed object sizes [Lee & Gupta; Butkiewicz et al.] -- and user
think times between pages follow a heavy-tailed distribution with a mean of
roughly ten seconds.

A *page* is treated as one downlink flow of its total byte size (the paper
reports page load times, i.e. whole-page completion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class WebPage:
    """One page download request.

    Attributes:
        client_id: destination client.
        arrival_s: request time.
        total_bytes: page weight (sum of its objects).
        n_objects: number of objects the page comprised.
    """

    client_id: int
    arrival_s: float
    total_bytes: int
    n_objects: int


@dataclass(frozen=True)
class WebWorkloadConfig:
    """Distribution parameters of the web model.

    Defaults follow the website-complexity measurements the paper cites:
    a median of ~12 objects per page, lognormal object sizes with a median
    of ~12 kB (mean ~30 kB), and lognormal think times with a mean of
    ~10 s.  Medians/means are reproduced by the tests.

    Attributes:
        objects_mu / objects_sigma: lognormal parameters of objects/page.
        object_bytes_mu / object_bytes_sigma: lognormal object size (bytes).
        think_mu / think_sigma: lognormal think time (seconds).
        max_objects: clip for the object count.
        max_object_bytes: clip for individual objects.
    """

    objects_mu: float = math.log(12.0)
    objects_sigma: float = 0.8
    object_bytes_mu: float = math.log(12_000.0)
    object_bytes_sigma: float = 1.3
    think_mu: float = math.log(6.0)
    think_sigma: float = 1.0
    max_objects: int = 100
    max_object_bytes: int = 5_000_000

    def draw_page_bytes(self, rng: np.random.Generator) -> tuple:
        """Sample one page: returns ``(total_bytes, n_objects)``."""
        n_objects = int(
            min(
                self.max_objects,
                max(1, round(rng.lognormal(self.objects_mu, self.objects_sigma))),
            )
        )
        sizes = rng.lognormal(
            self.object_bytes_mu, self.object_bytes_sigma, size=n_objects
        )
        total = int(np.minimum(sizes, self.max_object_bytes).sum())
        return max(total, 200), n_objects

    def draw_think_s(self, rng: np.random.Generator) -> float:
        """Sample a user think time between consecutive pages."""
        return float(rng.lognormal(self.think_mu, self.think_sigma))


def generate_web_sessions(
    client_ids,
    duration_s: float,
    rng: np.random.Generator,
    config: WebWorkloadConfig = WebWorkloadConfig(),
    initial_stagger_s: float = 5.0,
) -> List[WebPage]:
    """Generate page requests for every client over ``duration_s``.

    Each client browses independently: request a page, (download it,) think,
    request the next.  Think times start the stream; the first request of
    each client is staggered uniformly over ``initial_stagger_s`` to avoid
    a synchronized thundering herd at t=0.

    Returns:
        All page requests sorted by arrival time.
    """
    if duration_s <= 0.0:
        raise ValueError(f"duration must be > 0, got {duration_s!r}")
    pages: List[WebPage] = []
    for client_id in client_ids:
        t = float(rng.uniform(0.0, initial_stagger_s))
        while t < duration_s:
            total_bytes, n_objects = config.draw_page_bytes(rng)
            pages.append(
                WebPage(
                    client_id=client_id,
                    arrival_s=t,
                    total_bytes=total_bytes,
                    n_objects=n_objects,
                )
            )
            t += config.draw_think_s(rng)
    pages.sort(key=lambda p: p.arrival_s)
    return pages
