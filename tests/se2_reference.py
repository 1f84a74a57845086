"""The planar pose algebra that Pose2 carried as methods before
compose_floats and relative_floats took its place, kept as the tests' oracle.

Every result goes through the Pose2 constructor, which wraps its heading, as
the methods' results did; compose_floats and relative_floats give the same
bits on wrapped headings.
"""
import math

from mobman.geometry import Pose2


def compose(a: Pose2, b: Pose2) -> Pose2:
    """b, given in the frame of a, expressed in a's parent frame."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(a.x + c * b.x - s * b.y, a.y + s * b.x + c * b.y, a.theta + b.theta)


def inverse(a: Pose2) -> Pose2:
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(-(c * a.x + s * a.y), -(-s * a.x + c * a.y), -a.theta)


def relative_to(a: Pose2, reference: Pose2) -> Pose2:
    """a expressed in the frame of reference."""
    return compose(inverse(reference), a)
