#!/bin/sh
exit 3
